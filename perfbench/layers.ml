(* Per-layer metrics of a traced run, computed from the recorder
   records of [Fpart_obs] and its counters.

   Self time is a span's duration minus the union of its children's
   intervals (clipped to the span), computed here rather than with
   [Fpart_obs.Inspect.hotspots]: that one subtracts the sum of the
   children, which goes negative when children overlap (the parallel
   initial portfolio under [mlevel.initial]). *)

module Json = Fpart_obs.Json
module Metrics = Fpart_obs.Metrics
module Recorder = Fpart_obs.Recorder

(* Every per-layer metric with its unit, in print order. *)
let names =
  [
    ("netlist.blif_parse_ms", "ms");
    ("netlist.blif_mb_per_s", "MB/s");
    ("fpart.run_ms", "ms");
    ("fpart.iterations", "count");
    ("fpart.iteration_self_ms", "ms");
    ("fpart.improve_calls", "count");
    ("fpart.improve_zero_calls", "count");
    ("fpart.improve_repeat_calls", "count");
    ("fpart.improve_useful_ratio", "ratio");
    ("sanchis.pass_ms", "ms");
    ("sanchis.passes", "count");
    ("sanchis.moves", "count");
    ("sanchis.retained_ratio", "ratio");
    ("sanchis.delta_updates", "count");
    ("sanchis.restarts", "count");
    ("sanchis.alloc_mw", "Mword");
    ("gainbucket.scans", "count");
    ("gainbucket.scanned_cells", "count");
    ("gainbucket.updates", "count");
    ("mlevel.coarsen_ms", "ms");
    ("mlevel.levels", "count");
    ("mlevel.coarsen_ratio", "ratio");
    ("mlevel.initial_ms", "ms");
    ("mlevel.refine_ms", "ms");
    ("mlevel.uncoarsen_self_ms", "ms");
    ("mlevel.alloc_mw", "Mword");
    ("flow.refine_ms", "ms");
    ("flow.pairs", "count");
    ("flow.applied", "count");
    ("flow.skipped", "count");
    ("flow.applied_ratio", "ratio");
    ("exec.initial_overlap", "ratio");
    ("process.cpu_per_wall", "ratio");
    ("serve.protocol_ms", "ms");
    ("serve.load_ms", "ms");
    ("serve.digest_ms", "ms");
    ("serve.cache_ms", "ms");
    ("serve.cold_compute_ms", "ms");
    ("serve.warm_compute_ms", "ms");
    ("serve.transport_ms", "ms");
    ("serve.cache_hit_ratio", "ratio");
    ("serve.eco_warm_ratio", "ratio");
    ("serve.response_kb", "KB");
    ("obs.trace_overhead", "ratio");
    ("obs.unattributed_ratio", "ratio");
  ]

(* Raw totals, keyed by metric name or by a private "_" name. *)
type t = (string, float) Hashtbl.t

let create () : t = Hashtbl.create 64
let get (t : t) k = Option.value ~default:0.0 (Hashtbl.find_opt t k)
let add (t : t) k v = Hashtbl.replace t k (get t k +. v)
let set (t : t) k v = Hashtbl.replace t k v

(* [span name f] wraps one public call in a bench span. *)
let span name f =
  let sp = Recorder.span_begin name in
  Fun.protect ~finally:(fun () -> Recorder.span_end sp ~attrs:[]) f

type sp = {
  id : int;
  parent : int;
  name : string;
  t0 : float;
  dur : float;
  alloc_w : float;
}

let num j k =
  match Json.member k j with
  | Some (Json.Float f) -> f
  | Some (Json.Int i) -> float_of_int i
  | _ -> 0.0

let int j k = match Json.member k j with Some (Json.Int i) -> i | _ -> 0
let str j k = match Json.member k j with Some (Json.Str s) -> s | _ -> ""

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let union_length ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (total, Some (ca, Float.max cb b))
          else (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

let span_metric = function
  | "driver.run" -> Some ("fpart.run_ms", `Dur)
  | "driver.iteration" -> Some ("fpart.iteration_self_ms", `Self)
  | "improve.pass" -> Some ("sanchis.pass_ms", `Self)
  | "mlevel.coarsen" -> Some ("mlevel.coarsen_ms", `Dur)
  | "mlevel.initial" -> Some ("mlevel.initial_ms", `Dur)
  | "mlevel.uncoarsen" -> Some ("mlevel.uncoarsen_self_ms", `Self)
  | "flow.refine" -> Some ("flow.refine_ms", `Dur)
  | "bench.protocol" -> Some ("serve.protocol_ms", `Dur)
  | "bench.load" -> Some ("serve.load_ms", `Dur)
  | "bench.digest" -> Some ("serve.digest_ms", `Dur)
  | "bench.cache" -> Some ("serve.cache_ms", `Dur)
  | "bench.cold" -> Some ("serve.cold_compute_ms", `Dur)
  | "bench.warm" -> Some ("serve.warm_compute_ms", `Dur)
  | "bench.unit" -> Some ("_unit_ms", `Dur)
  | _ -> None

(* Fold one traced unit's records into [t]. *)
let absorb_records t records =
  let spans =
    List.filter_map
      (fun r ->
        if str r "type" = "span" then
          Some
            {
              id = int r "id";
              parent = int r "parent";
              name = str r "name";
              t0 = num r "t_ms";
              dur = num r "dur_ms";
              alloc_w = num r "alloc_w";
            }
        else None)
      records
  in
  let by_id = Hashtbl.create 256 and children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Hashtbl.replace by_id s.id s;
      Hashtbl.replace children s.parent
        ((s.t0, s.t0 +. s.dur)
        :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let self s =
    match Hashtbl.find_opt children s.id with
    | None -> s.dur
    | Some iv -> Float.max 0.0 (s.dur -. union_length ~lo:s.t0 ~hi:(s.t0 +. s.dur) iv)
  in
  let rec ancestor name id =
    match Hashtbl.find_opt by_id id with
    | None -> None
    | Some s when s.name = name -> Some s
    | Some s -> ancestor name s.parent
  in
  List.iter
    (fun s ->
      (match span_metric s.name with
      | Some (m, `Dur) -> add t m s.dur
      | Some (m, `Self) -> add t m (self s)
      | None -> ());
      (match s.name with
      | "mlevel.refine" ->
        (* Driver.refine runs Sanchis here without pass spans; its flow
           stage is the only child *)
        add t "mlevel.refine_ms" s.dur;
        add t "sanchis.pass_ms" (self s);
        add t "sanchis.alloc_mw" (s.alloc_w /. 1e6)
      | "improve.pass" -> add t "sanchis.alloc_mw" (s.alloc_w /. 1e6)
      | "mlevel.run" -> add t "mlevel.alloc_mw" (s.alloc_w /. 1e6)
      | "driver.run" -> (
        match ancestor "mlevel.initial" s.parent with
        | Some _ -> add t "_initial_runs_ms" s.dur
        | None -> ())
      | _ -> ());
      if Hashtbl.mem children s.id then add t "_parent_self_ms" (self s))
    spans;
  (* Improve() calls: the driver's [schedule] records, grouped by the
     driver run they belong to. *)
  let last = Hashtbl.create 16 in
  List.iter
    (fun r ->
      if str r "type" = "schedule" then begin
        let run =
          match ancestor "driver.run" (int r "span") with
          | Some s -> s.id
          | None -> 0
        in
        let key = (int r "iteration", Json.to_string (Option.value ~default:Json.Null (Json.member "blocks" r))) in
        let retained = int r "moves_retained" in
        add t "fpart.improve_calls" 1.0;
        if retained = 0 then add t "fpart.improve_zero_calls" 1.0;
        (match Hashtbl.find_opt last run with
        | Some (k, 0) when k = key -> add t "fpart.improve_repeat_calls" 1.0
        | _ -> ());
        Hashtbl.replace last run (key, retained)
      end)
    records

let counters =
  [
    ("driver.iterations", "fpart.iterations");
    ("sanchis.passes", "sanchis.passes");
    ("sanchis.moves", "sanchis.moves");
    ("sanchis.rewound_moves", "_rewound");
    ("sanchis.delta.updates", "sanchis.delta_updates");
    ("sanchis.restarts", "sanchis.restarts");
    ("bucket.scans", "gainbucket.scans");
    ("bucket.scanned_cells", "gainbucket.scanned_cells");
    ("bucket.updates", "gainbucket.updates");
    ("mlevel.levels", "mlevel.levels");
    ("flow.pairs", "flow.pairs");
    ("flow.applied", "flow.applied");
    ("flow.skipped", "flow.skipped");
  ]

(* [traced t f] runs [f] with the recorder on, inside a [bench.unit]
   span, and folds its records and counters into [t]. *)
let traced t f =
  Metrics.reset ();
  let sink, records = Fpart_obs.Sink.memory () in
  Fpart_obs.Sink.set sink;
  Metrics.set_enabled true;
  Fpart_obs.Resource.set_enabled true;
  let result =
    Fun.protect
      ~finally:(fun () ->
        Metrics.set_enabled false;
        Fpart_obs.Resource.set_enabled false;
        Fpart_obs.Sink.set Fpart_obs.Sink.null)
      (fun () -> span "bench.unit" f)
  in
  absorb_records t (records ());
  List.iter
    (fun (c, m) -> add t m (float_of_int (Metrics.counter_value (Metrics.counter c))))
    counters;
  result

(* The final per-layer table.  Ratios are formed from the totals. *)
let finish t =
  set t "fpart.improve_useful_ratio"
    (Stats.ratio
       (get t "fpart.improve_calls" -. get t "fpart.improve_zero_calls")
       (get t "fpart.improve_calls"));
  set t "sanchis.retained_ratio"
    (Stats.ratio (get t "sanchis.moves" -. get t "_rewound") (get t "sanchis.moves"));
  set t "flow.applied_ratio" (Stats.ratio (get t "flow.applied") (get t "flow.pairs"));
  set t "exec.initial_overlap"
    (Stats.ratio (get t "_initial_runs_ms") (get t "mlevel.initial_ms"));
  set t "obs.unattributed_ratio"
    (Stats.ratio (get t "_parent_self_ms") (get t "_unit_ms"));
  List.map (fun (name, unit_) -> (name, unit_, get t name)) names
