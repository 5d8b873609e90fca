(* The batch workloads: [paper-tables] (flat FPART over the 34
   circuit/device units of Tables 2-5) and [mlevel-scale] (the V-cycle
   with the hybrid refiner on 10^4-cell Rent circuits).  Inputs reach
   the partitioners as BLIF files written and parsed here. *)

module Hg = Hypergraph.Hgraph
module Json = Fpart_obs.Json

type input = {
  file : string;
  generate : unit -> Hg.t;  (** The circuit before the BLIF round trip. *)
}

type job = {
  label : string;
  input : input;
  device : Device.t;
  run : Hg.t -> Fpart.Driver.result * (string * float) list;
      (** The result, plus per-layer numbers only the result carries. *)
}

type workload = { inputs : input list; jobs : job list }

let input ~work ~name generate = { file = Filename.concat work (name ^ ".blif"); generate }

(* The paper's published configuration, default FPART seed included:
   the workload seed only orders the units (see [timed]).  FPART's seed
   changes a unit's work by up to 2x (s38584/XC3090 takes 4.6-8.6 s over
   seeds 1-10), which alone spread [suite_s] by 17% across workload
   seeds. *)
let paper_tables ~work ~reduced =
  let config = Fpart.Config.default in
  let inputs = Hashtbl.create 16 in
  let input_of c (d : Device.t) =
    let name =
      Printf.sprintf "%s_%s" c.Netlist.Mcnc.circuit_name
        (match d.Device.family with Device.XC2000 -> "xc2000" | Device.XC3000 -> "xc3000")
    in
    match Hashtbl.find_opt inputs name with
    | Some i -> i
    | None ->
      let i = input ~work ~name (fun () -> Netlist.Mcnc.surrogate c d.Device.family) in
      Hashtbl.add inputs name i;
      i
  in
  let units =
    List.concat_map
      (fun d -> List.map (fun c -> (c, d)) Netlist.Mcnc.all)
      [ Device.xc3020; Device.xc3042; Device.xc3090 ]
    @ List.map (fun c -> (c, Device.xc2064)) Netlist.Mcnc.table5_subset
  in
  let units =
    if not reduced then units
    else
      List.filter
        (fun (c, (d : Device.t)) ->
          d == Device.xc3090
          && List.mem c.Netlist.Mcnc.circuit_name [ "c3540"; "c5315"; "s5378"; "s9234" ])
        units
  in
  let jobs =
    List.map
      (fun (c, d) ->
        {
          label = Printf.sprintf "%s/%s" c.Netlist.Mcnc.circuit_name d.Device.dev_name;
          input = input_of c d;
          device = d;
          run = (fun hg -> (Fpart.Driver.run ~config hg d, []));
        })
      units
  in
  { inputs = Hashtbl.fold (fun _ i acc -> i :: acc) inputs [] |> List.sort compare; jobs }

(* The circuits are part of the workload's shape (generator seed = cell
   count), and FPART keeps its default seed, as in [paper_tables]: over
   workload seeds 1-10 FPART's seed spread [suite_s] by 11% and [cut] by
   7%. *)
let mlevel_scale ~work ~reduced =
  let base =
    {
      Fpart.Config.default with
      Fpart.Config.refiner = Fpart.Config.Hybrid_refiner;
      jobs = 2;
    }
  in
  let sizes = if reduced then [ 2000; 4000 ] else [ 10000; 20000 ] in
  let jobs =
    List.map
      (fun cells ->
        let name = Printf.sprintf "rent%d" cells in
        {
          label = Printf.sprintf "rent:%d/V1250" cells;
          input =
            input ~work ~name (fun () ->
                Netlist.Generator.generate
                  (Netlist.Generator.rent_spec ~name ~cells ~seed:cells));
          device = Device.v1250;
          run =
            (fun hg ->
              let r = Mlevel.Engine.run ~base hg Device.v1250 in
              (r.Mlevel.Engine.res, [ ("mlevel.coarsen_ratio", r.Mlevel.Engine.coarsen_ratio) ]));
        })
      sizes
  in
  { inputs = List.map (fun j -> j.input) jobs; jobs }

(* --- setup: write and parse every input ------------------------------ *)

let parse file =
  match Netlist.Blif.parse_file file with
  | Ok m -> m.Netlist.Blif.graph
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)

(* Writes every input; returns the problems of the BLIF round trip,
   which must keep the node, net, pad and size counts. *)
let prepare w =
  let counts h = (Hg.num_nodes h, Hg.num_nets h, Hg.num_pads h, Hg.total_size h) in
  List.filter_map
    (fun i ->
      let g = i.generate () in
      let name = Filename.remove_extension (Filename.basename i.file) in
      Netlist.Blif.write_file i.file (Netlist.Blif.of_hypergraph ~name g);
      if counts g = counts (parse i.file) then None
      else Some (i.file ^ ": BLIF round trip changed the node, net, pad or size counts"))
    w.inputs

let time f =
  let t0 = Clock.now () in
  let v = f () in
  (v, Clock.now () -. t0)

(* One set-up: a parse of all inputs, in seconds. *)
let setup w = snd (time (fun () -> List.iter (fun i -> ignore (parse i.file)) w.inputs))

(* --- one execution --------------------------------------------------- *)

let check_result job hg (r : Fpart.Driver.result) =
  let problems =
    (if r.Fpart.Driver.feasible then [] else [ "infeasible result" ])
    @ Oracle_check.partition hg job.device ~delta:r.Fpart.Driver.delta ~k:r.Fpart.Driver.k
        ~cut:r.Fpart.Driver.cut ~assign:r.Fpart.Driver.assignment
  in
  List.map (fun p -> Printf.sprintf "%s: %s" job.label p) problems

(* What a unit's repeats must reproduce. *)
type outcome = { k : int; cut : int; assign : string }

let outcome (r : Fpart.Driver.result) =
  {
    k = r.Fpart.Driver.k;
    cut = r.Fpart.Driver.cut;
    assign = Digest.to_hex (Digest.string (Marshal.to_string r.Fpart.Driver.assignment []));
  }

(* Child-process side: parse the unit's input, run it once, check it and
   print one JSON line.  A fresh process per execution keeps its peak
   RSS its own: with [jobs = 2] the heap peak of a long-lived process
   varies by 20% with GC timing. *)
let run_unit w label =
  let job = List.find (fun j -> j.label = label) w.jobs in
  let hg = parse job.input.file in
  let fields =
    match time (fun () -> job.run hg) with
    | exception e ->
      [ ("problems", Json.List [ Json.Str (label ^ ": exception " ^ Printexc.to_string e) ]) ]
    | (r, _), dt ->
      let o = outcome r in
      [
        ("s", Json.Float dt);
        ("rss_mb", Json.Float (Host.max_rss_mb "self"));
        ("k", Json.Int o.k);
        ("cut", Json.Int o.cut);
        ("assign", Json.Str o.assign);
        ("problems", Json.List (List.map (fun p -> Json.Str p) (check_result job hg r)));
      ]
  in
  print_endline (Json.to_string (Json.Obj fields))

type sample = { s : float; rss_mb : float; o : outcome }

(* Parent side: one execution of [job] in a child process started with
   [argv] plus [--unit LABEL]. *)
let execute_child ~argv job =
  let exe = Sys.executable_name in
  let ic = Unix.open_process_args_in exe (Array.of_list ((exe :: argv) @ [ "--unit"; job.label ])) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let line = List.hd (List.rev (String.split_on_char '\n' (String.trim out))) in
  match (status, Json.of_string line) with
  | Unix.WEXITED 0, Ok j -> (
    let problems =
      match Json.member "problems" j with
      | Some (Json.List ps) -> List.filter_map Json.str ps
      | _ -> [ job.label ^ ": unreadable child output" ]
    in
    match problems with
    | [] ->
      Ok
        {
          s = Layers.num j "s";
          rss_mb = Layers.num j "rss_mb";
          o =
            {
              k = Layers.int j "k";
              cut = Layers.int j "cut";
              assign = Layers.str j "assign";
            };
        }
    | ps -> Error ps)
  | _ -> Error [ job.label ^ ": child process failed (exception)" ]

(* --- timed run ------------------------------------------------------- *)

(* Every unit runs once, in a seeded order; then, while time is left,
   further rounds repeat the units slowest first, each only if its
   first execution still fits before the deadline.  A unit's time is
   the median of its repeats; so is its peak RSS.  Set-ups are spread
   over the run the same way: one after every [stride]-th execution,
   at most 16. *)
let timed w ~argv ~seed ~seconds =
  let firsts = Hashtbl.create 64 and samples = Hashtbl.create 64 in
  let cost = Hashtbl.create 64 in
  let failures = ref [] and attempted = ref 0 in
  let setups = ref [ setup w ] in
  let stride = max 1 (List.length w.jobs / 8) in
  let t_end = Clock.now () +. seconds in
  let run_job job =
    incr attempted;
    if !attempted mod stride = 0 && List.length !setups < 16 then setups := setup w :: !setups;
    let result, wall = time (fun () -> execute_child ~argv job) in
    if not (Hashtbl.mem cost job.label) then Hashtbl.replace cost job.label wall;
    let result =
      match (result, Hashtbl.find_opt firsts job.label) with
      | Ok x, Some o when x.o <> o ->
        Error [ job.label ^ ": result differs from its first run (mismatch)" ]
      | r, _ -> r
    in
    match result with
    | Ok x ->
      Hashtbl.replace firsts job.label x.o;
      Hashtbl.replace samples job.label
        (x :: Option.value ~default:[] (Hashtbl.find_opt samples job.label));
      true
    | Error problems ->
      failures := !failures @ problems;
      false
  in
  let rng = Random.State.make [| seed; 0x5eed |] in
  let order = Array.of_list w.jobs in
  Stats.shuffle rng order;
  let live = List.filter run_job (Array.to_list order) in
  let by_cost =
    List.sort (fun a b -> compare (Hashtbl.find cost b.label) (Hashtbl.find cost a.label)) live
  in
  let rec rounds () =
    let ran =
      List.fold_left
        (fun ran job ->
          if Clock.now () +. Hashtbl.find cost job.label <= t_end then run_job job || ran
          else ran)
        false by_cost
    in
    if ran then rounds ()
  in
  rounds ();
  let per_unit f =
    List.filter_map
      (fun job ->
        Option.map (fun xs -> Stats.median (List.map f xs)) (Hashtbl.find_opt samples job.label))
      w.jobs
  in
  let unit_medians = per_unit (fun x -> x.s) in
  let sum_first f = Hashtbl.fold (fun _ o acc -> acc + f o) firsts 0 in
  let ms = List.map (fun s -> s *. 1000.0) unit_medians in
  {
    Report.attempted = !attempted;
    failures = !failures;
    metrics =
      Report.select Report.end_to_end
        [
          ("suite_s", Stats.sum unit_medians);
          ("unit_ms.gmean", Stats.gmean ~floor:1.0 ms);
          ("devices", float_of_int (sum_first (fun o -> o.k)));
          ("cut", float_of_int (sum_first (fun o -> o.cut)));
          ("max_rss_mb", List.fold_left Float.max 0.0 (per_unit (fun x -> x.rss_mb)));
          ("setup_s", Stats.median !setups);
        ];
    notes =
      [
        ("units", Json.Int (List.length w.jobs));
        ("latency_ms.p50", Json.Float (Stats.quantile ms 0.5));
        ("latency_ms.p95", Json.Float (Stats.quantile ms 0.95));
        ( "repeats",
          Json.Int (Hashtbl.fold (fun _ l acc -> acc + List.length l) samples 0) );
      ];
  }

(* --- traced run ------------------------------------------------------ *)

(* In-process: each unit runs once untraced and once traced, back to
   back, and both runs must agree. *)
let traced w ~problems =
  let layers = Layers.create () in
  let failures = ref problems in
  let bytes = List.fold_left (fun acc i -> acc + (Unix.stat i.file).Unix.st_size) 0 w.inputs in
  let graphs, parse_s = time (fun () -> List.map (fun i -> (i.file, parse i.file)) w.inputs) in
  Layers.set layers "netlist.blif_parse_ms" (parse_s *. 1000.0);
  Layers.set layers "netlist.blif_mb_per_s" (float_of_int bytes /. 1e6 /. parse_s);
  let plain = ref 0.0 and with_trace = ref 0.0 and cpu = ref 0.0 and ratios = ref [] in
  let cpu_s () =
    let t = Unix.times () in
    t.Unix.tms_utime +. t.Unix.tms_stime
  in
  List.iter
    (fun job ->
      let hg = List.assoc job.input.file graphs in
      match
        let c0 = cpu_s () in
        let (r, _), dt = time (fun () -> job.run hg) in
        cpu := !cpu +. (cpu_s () -. c0);
        plain := !plain +. dt;
        let (r', extra), dt' = time (fun () -> Layers.traced layers (fun () -> job.run hg)) in
        with_trace := !with_trace +. dt';
        ratios := List.map snd extra @ !ratios;
        check_result job hg r
        @ if outcome r = outcome r' then [] else [ job.label ^ ": traced run differs (mismatch)" ]
      with
      | exception e -> failures := !failures @ [ job.label ^ ": exception " ^ Printexc.to_string e ]
      | problems -> failures := !failures @ problems)
    w.jobs;
  Layers.set layers "process.cpu_per_wall" (Stats.ratio !cpu !plain);
  Layers.set layers "obs.trace_overhead" (Stats.ratio !with_trace !plain -. 1.0);
  (match !ratios with
  | [] -> ()
  | rs -> Layers.set layers "mlevel.coarsen_ratio" (Stats.sum rs /. float_of_int (List.length rs)));
  {
    Report.attempted = 2 * List.length w.jobs;
    failures = !failures;
    metrics = Layers.finish layers;
    notes = [ ("units", Json.Int (List.length w.jobs)) ];
  }
