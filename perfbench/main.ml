(* Benchmark runner: one workload per process.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
              --serve PATH/fpart_serve.exe --work DIR [--reduced]

   [--trace 0] prints the end-to-end metrics, [--trace 1] the per-layer
   metrics of a traced run.  See README.md in this directory. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let serve = ref "" and work = ref ".perfbench" and reduced = ref false in
  let unit_ = ref None in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME paper-tables | mlevel-scale | serve-eco");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time of a timed run");
      ("--trace", Arg.Set_int trace, "0|1 timed run or traced run");
      ("--serve", Arg.Set_string serve, "PATH fpart_serve executable");
      ("--work", Arg.Set_string work, "DIR directory for generated inputs");
      ("--reduced", Arg.Set reduced, " small inputs (determinism test)");
      ("--unit", Arg.String (fun l -> unit_ := Some l), "LABEL run one batch unit once (child process)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists !work) then Sys.mkdir !work 0o755;
  if !unit_ = None then
    print_endline ("host " ^ Fpart_obs.Json.to_string (Host.stamp ()));
  let traced = !trace = 1 in
  let batch w =
    match !unit_ with
    | Some label ->
      Batch.run_unit w label;
      exit 0
    | None ->
      let problems = Batch.prepare w in
      if traced then Batch.traced w ~problems
      else
        let argv =
          [ "--workload"; !workload; "--seed"; string_of_int !seed; "--work"; !work ]
          @ if !reduced then [ "--reduced" ] else []
        in
        let r = Batch.timed w ~argv ~seed:!seed ~seconds:!seconds in
        { r with Report.failures = problems @ r.Report.failures }
  in
  let report =
    match !workload with
    | "paper-tables" -> batch (Batch.paper_tables ~work:!work ~reduced:!reduced)
    | "mlevel-scale" -> batch (Batch.mlevel_scale ~work:!work ~reduced:!reduced)
    | "serve-eco" ->
      let s = Serve_eco.create ~work:!work ~seed:!seed ~reduced:!reduced ~exe:!serve in
      if traced then Serve_eco.traced s else Serve_eco.timed s ~seconds:!seconds
    | w ->
      Printf.eprintf "unknown workload %S\n" w;
      exit 2
  in
  Report.print report
