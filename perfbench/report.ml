(* Result line of one benchmark run.  The last line of standard output
   is one JSON object with exactly [correct], [attempted], [failed] and
   [metrics]; a human-readable [report] line with workload-specific
   numbers comes just before it. *)

module Json = Fpart_obs.Json

(* End-to-end metrics, printed by every workload of an untraced run. *)
let end_to_end =
  [
    ("suite_s", "s");
    ("unit_ms.gmean", "ms");
    ("devices", "count");
    ("cut", "count");
    ("max_rss_mb", "MB");
    ("setup_s", "s");
  ]

type t = {
  attempted : int;
  failures : string list;  (** One line per failed operation. *)
  metrics : (string * string * float) list;  (** name, unit, value *)
  notes : (string * Json.t) list;  (** Extra numbers for the report line. *)
}

(* Failures are tallied per class in the report line and listed on
   standard error, so a failing run says what failed and why. *)
let print t =
  List.iter (fun f -> Printf.eprintf "failure: %s\n" f) t.failures;
  let failed = List.length t.failures in
  let notes =
    t.notes
    @ [
        ( "failed_frac",
          Json.Float
            (Stats.ratio (float_of_int failed) (float_of_int (max 1 t.attempted)))
        );
      ]
  in
  print_endline ("report " ^ Json.to_string (Json.Obj notes));
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int t.attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj
                (List.map
                   (fun (name, unit_, value) ->
                     ( name,
                       Json.Obj
                         [ ("value", Json.Float value); ("unit", Json.Str unit_) ]
                     ))
                   t.metrics) );
          ]))

(* Look up the value of every listed metric in [values]; a missing
   value is a bug in the workload, not a measurement. *)
let select names values =
  List.map
    (fun (name, unit_) ->
      match List.assoc_opt name values with
      | Some v -> (name, unit_, v)
      | None -> invalid_arg ("metric not computed: " ^ name))
    names
