(* The [serve-eco] workload: one client on one Unix-socket connection
   to [fpart_serve --socket --jobs 1], in a closed loop over a seeded
   stream of cold requests, ECO chains and repeats on Rent designs.
   Each pass starts a fresh daemon, so every pass sees an empty cache.

   The traced run replays the same stream in-process, stage by stage,
   through the public functions the daemon uses, and checks that the
   replay answers every request exactly as the daemon did. *)

module Hg = Hypergraph.Hgraph
module Json = Fpart_obs.Json
module P = Serve.Protocol

let device = Device.xc3042
let eco_steps = 6
let repeats = 4

type design = {
  name : string;
  blif : string;
  reordered : string;  (** Same circuit; signal order shuffled per line. *)
  graph : Hg.t;  (** As parsed from [blif]. *)
  deltas : Netlist.Delta.t array;  (** Cumulative: [deltas.(j)] is steps 1..j+1. *)
  eco_graphs : Hg.t array;  (** [graph] with [deltas.(j)] applied. *)
  req_seed : int;
}

type kind = Cold | Eco of int  (** step, from 1 *) | Repeat of bool  (** reordered *)

type event = { design : int; kind : kind; id : string }

type t = {
  exe : string;
  work : string;
  designs : design array;
  stream : event array;
  setup_problems : string list;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

(* BLIF names cells by position ([g1], [g2], ...) and pads by their
   index in the port list, so only the signal order inside a [.names]
   line can change without renaming nodes. *)
let reorder_blif rng text =
  String.split_on_char '\n' text
  |> List.map (fun line ->
         match String.split_on_char ' ' line with
         | ".names" :: (_ :: _ :: _ as signals) ->
           let a = Array.of_list signals in
           Stats.shuffle rng a;
           String.concat " " (".names" :: Array.to_list a)
         | _ -> line)
  |> String.concat "\n"

let make_design ~work ~seed ~rng ~cells d =
  let name = Printf.sprintf "eco%02d" d in
  let generated =
    Netlist.Generator.generate
      (Netlist.Generator.rent_spec ~name ~cells ~seed:(d + 1))
  in
  let blif = Filename.concat work (name ^ ".blif") in
  let reordered = Filename.concat work (name ^ "_r.blif") in
  Netlist.Blif.write_file blif (Netlist.Blif.of_hypergraph ~name generated);
  write_file reordered (reorder_blif rng (read_file blif));
  let graph =
    match Netlist.Blif.parse_file blif with
    | Ok m -> m.Netlist.Blif.graph
    | Error e -> failwith (blif ^ ": " ^ e)
  in
  let counts h = (Hg.num_nodes h, Hg.num_nets h, Hg.num_pads h, Hg.total_size h) in
  let problems =
    if counts graph = counts generated then []
    else [ blif ^ ": BLIF round trip changed nodes/nets/pads/size" ]
  in
  (* ECO steps: remove one cell, add one cell wired to two survivors *)
  let cell_names = ref [] in
  Hg.iter_cells (fun v -> cell_names := Hg.name graph v :: !cell_names) graph;
  let cell_names = Array.of_list (List.rev !cell_names) in
  Stats.shuffle rng cell_names;
  let removed = Array.sub cell_names 0 eco_steps in
  let survivors = Array.sub cell_names eco_steps (Array.length cell_names - eco_steps) in
  let step j =
    let a = survivors.(Random.State.int rng (Array.length survivors)) in
    let rec other () =
      let b = survivors.(Random.State.int rng (Array.length survivors)) in
      if b = a then other () else b
    in
    let cell = Printf.sprintf "eco_c%d" j in
    ( removed.(j - 1),
      { Netlist.Delta.cell_name = cell; size = 1; flops = 0 },
      { Netlist.Delta.net_name = Printf.sprintf "eco_n%d" j; pins = [ cell; a; other () ] } )
  in
  let steps = List.init eco_steps (fun i -> step (i + 1)) in
  let deltas =
    Array.init eco_steps (fun j ->
        let upto = List.filteri (fun i _ -> i <= j) steps in
        {
          Netlist.Delta.empty with
          remove_nodes = List.map (fun (r, _, _) -> r) upto;
          add_cells = List.map (fun (_, c, _) -> c) upto;
          add_nets = List.map (fun (_, _, n) -> n) upto;
        })
  in
  let eco_graphs =
    Array.map
      (fun dl ->
        match Netlist.Delta.apply dl graph with
        | Ok h -> h
        | Error e -> failwith (name ^ ": delta: " ^ e))
      deltas
  in
  ( { name; blif; reordered; graph; deltas; eco_graphs; req_seed = seed + d },
    problems )

(* Per design: the cold request, then its ECO chain and its repeats in
   a seeded order (half of the repeats name the reordered file); the
   designs' queues are interleaved at random. *)
let create ~work ~seed ~reduced ~exe =
  let rng = Random.State.make [| seed; 0xec0 |] in
  let n = if reduced then 3 else 19 in
  (* sizes are part of the shape: evenly spread over 400..800 cells *)
  let made =
    Array.init n (fun d -> make_design ~work ~seed ~rng ~cells:(400 + (400 * d / (n - 1))) d)
  in
  let designs = Array.map fst made in
  let queues =
    Array.mapi
      (fun d _ ->
        let tail =
          Array.append
            (Array.make eco_steps `Eco)
            (Array.init repeats (fun i -> `Repeat (i mod 2 = 1)))
        in
        Stats.shuffle rng tail;
        let step = ref 0 and rep = ref 0 in
        let ev kind tag = { design = d; kind; id = Printf.sprintf "d%02d-%s" d tag } in
        ev Cold "cold"
        :: List.map
             (function
               | `Eco ->
                 incr step;
                 ev (Eco !step) (Printf.sprintf "eco%d" !step)
               | `Repeat r ->
                 incr rep;
                 ev (Repeat r) (Printf.sprintf "rep%d" !rep))
             (Array.to_list tail)
        |> ref)
      designs
  in
  let stream = ref [] in
  let rec drain () =
    let live = List.filter (fun d -> !(queues.(d)) <> []) (List.init n Fun.id) in
    if live <> [] then begin
      let d = List.nth live (Random.State.int rng (List.length live)) in
      (match !(queues.(d)) with
      | e :: rest ->
        stream := e :: !stream;
        queues.(d) := rest
      | [] -> ());
      drain ()
    end
  in
  drain ();
  {
    exe;
    work;
    designs;
    stream = Array.of_list (List.rev !stream);
    setup_problems = List.concat_map snd (Array.to_list made);
  }

(* The request line of [ev]; ECO steps carry the previous partition. *)
let request_line t ev ~prev_partition =
  let d = t.designs.(ev.design) in
  let path = match ev.kind with Repeat true -> d.reordered | _ -> d.blif in
  let eco =
    match ev.kind with
    | Eco j ->
      [
        ( "eco",
          Json.Obj
            [
              ("delta", Json.Obj [ ("text", Json.Str (Netlist.Delta.to_string d.deltas.(j - 1))) ]);
              ("partfile", Json.Obj [ ("text", Json.Str prev_partition) ]);
            ] );
      ]
    | Cold | Repeat _ -> []
  in
  Json.to_string
    (Json.Obj
       ([
          ("id", Json.Str ev.id);
          ("netlist", Json.Obj [ ("path", Json.Str path) ]);
          ("device", Json.Str device.Device.dev_name);
          ("seed", Json.Int d.req_seed);
        ]
       @ eco))

(* Fields a repeat must reproduce byte for byte ([wall_ms] and [cache]
   legitimately differ). *)
let payload (s : P.success) =
  ( (s.P.k, s.P.feasible, s.P.cut, s.P.total_pins, s.P.m_lower),
    (s.P.mode, s.P.netlist_digest, s.P.config_digest, s.P.partition) )

let check t ev (s : P.success) =
  let d = t.designs.(ev.design) in
  let hg = match ev.kind with Eco j -> d.eco_graphs.(j - 1) | Cold | Repeat _ -> d.graph in
  let problems =
    match Netlist.Partfile.parse_string s.P.partition with
    | Error e -> [ "partfile: " ^ e ]
    | Ok pf -> (
      match Netlist.Partfile.apply pf hg with
      | Error e -> [ "partfile: " ^ e ]
      | Ok (assign, k) ->
        (if k = s.P.k then [] else [ Printf.sprintf "reported k %d, partfile %d" s.P.k k ])
        @ (if s.P.feasible then [] else [ "infeasible result" ])
        @ Oracle_check.partition hg device ~delta:(Device.paper_delta device) ~k:s.P.k
            ~cut:s.P.cut ~assign)
  in
  List.map (fun p -> ev.id ^ ": " ^ p) problems

(* --- the daemon ------------------------------------------------------ *)

let live = ref []

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) pid) !live

let () = at_exit (fun () -> List.iter reap !live)

type conn = { pid : int; fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

(* Spawns the daemon and waits for its first [pong]; returns the
   connection and the time from spawn to pong. *)
let spawn t =
  let sock = Filename.concat t.work (Printf.sprintf "serve%d.sock" (Unix.getpid ())) in
  if Sys.file_exists sock then Sys.remove sock;
  let t0 = Clock.now () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let log =
    Unix.openfile (Filename.concat t.work "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process t.exe [| t.exe; "--socket"; sock; "--jobs"; "1" |] null log log
  in
  Unix.close null;
  Unix.close log;
  live := pid :: !live;
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when Clock.now () -. t0 < 30.0 ->
      Unix.close fd;
      Unix.sleepf 0.002;
      connect ()
  in
  let fd = connect () in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 60.0;
  let c = { pid; fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd } in
  send c {|{"op":"ping"}|};
  let pong = input_line c.ic in
  if pong <> P.pong_line then failwith ("expected pong, got " ^ pong);
  (c, Clock.now () -. t0)

let shutdown c =
  (try
     send c {|{"op":"shutdown"}|};
     ignore (input_line c.ic)
   with Sys_error _ | End_of_file | Unix.Unix_error _ -> ());
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] c.pid) with Unix.Unix_error _ -> ());
  live := List.filter (( <> ) c.pid) !live

type pass = {
  setup_s : float;
  rtt : float option array;  (** Round trip per stream position, s. *)
  replies : P.success option array;
  bytes : int array;
  rss_mb : float;
  failures : string list;
}

(* One pass of the stream through a fresh daemon. *)
let run_pass t =
  let n = Array.length t.stream in
  let rtt = Array.make n None and replies = Array.make n None in
  let bytes = Array.make n 0 in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let c, setup_s = spawn t in
  let last = Hashtbl.create 32 in
  let cold = Hashtbl.create 32 in
  let dead = ref None in
  Array.iteri
    (fun i ev ->
      match !dead with
      | Some why -> fail "%s: not answered (%s)" ev.id why
      | None -> (
        let prev = Hashtbl.find_opt last ev.design in
        match (ev.kind, prev) with
        | Eco _, None -> fail "%s: no previous partition to send" ev.id
        | _ -> (
          let line = request_line t ev ~prev_partition:(Option.value ~default:"" prev) in
          let t0 = Clock.now () in
          match
            send c line;
            input_line c.ic
          with
          | exception End_of_file -> dead := Some "daemon died"; fail "%s: daemon died" ev.id
          | exception (Sys_error _ | Unix.Unix_error _) ->
            dead := Some "client deadline";
            fail "%s: client deadline" ev.id
          | reply -> (
            rtt.(i) <- Some (Clock.now () -. t0);
            bytes.(i) <- String.length reply + 1;
            match P.response_of_line reply with
            | Error e -> fail "%s: unreadable reply: %s" ev.id e
            | Ok { P.outcome = Error e; _ } -> fail "%s: error reply: %s" ev.id e
            | Ok { P.outcome = Ok s; _ } ->
              let problems =
                check t ev s
                @
                match ev.kind with
                | Repeat _ -> (
                  (if s.P.cache = "hit" then [] else [ ev.id ^ ": repeat missed the cache" ])
                  @
                  match Hashtbl.find_opt cold ev.design with
                  | Some c when payload c = payload s -> []
                  | _ -> [ ev.id ^ ": repeat differs from its cold reply (mismatch)" ])
                | Cold | Eco _ -> []
              in
              if problems <> [] then failures := List.rev_append problems !failures
              else begin
                replies.(i) <- Some s;
                (match ev.kind with
                | Cold -> Hashtbl.replace cold ev.design s
                | Eco _ | Repeat _ -> ());
                match ev.kind with
                | Cold | Eco _ -> Hashtbl.replace last ev.design s.P.partition
                | Repeat _ -> ()
              end))))
    t.stream;
  let rss_mb = Host.max_rss_mb (string_of_int c.pid) in
  shutdown c;
  { setup_s; rtt; replies; bytes; rss_mb; failures = List.rev !failures }

let class_of = function Cold -> `Cold | Eco _ -> `Warm | Repeat _ -> `Hit

(* --- timed run ------------------------------------------------------- *)

let timed t ~seconds =
  let t_end = Clock.now () +. seconds in
  (* extra daemon start-ups, so [setup_s] is a median of several *)
  let probes =
    List.init 4 (fun _ ->
        let c, s = spawn t in
        shutdown c;
        s)
  in
  let t0 = Clock.now () in
  let first = run_pass t in
  let pass_s = Clock.now () -. t0 in
  let rec more acc =
    if Clock.now () +. pass_s <= t_end then more (run_pass t :: acc)
    else List.rev acc
  in
  let passes = first :: more [] in
  (* a later pass must answer every request as the first did *)
  let mismatches =
    List.concat_map
      (fun p ->
        List.concat
          (List.mapi
             (fun i ev ->
               match (first.replies.(i), p.replies.(i)) with
               | Some a, Some b when payload a <> payload b ->
                 [ ev.id ^ ": reply differs between passes (mismatch)" ]
               | _ -> [])
             (Array.to_list t.stream)))
      (List.tl passes)
  in
  let n = Array.length t.stream in
  let per_request i = List.filter_map (fun p -> p.rtt.(i)) passes in
  let medians =
    List.filter_map
      (fun i -> match per_request i with [] -> None | xs -> Some (Stats.median xs))
      (List.init n Fun.id)
  in
  let all_ms cls =
    List.concat
      (List.init n (fun i ->
           if cls = None || cls = Some (class_of t.stream.(i).kind) then
             List.map (fun x -> x *. 1000.0) (per_request i)
           else []))
  in
  let sum_first f =
    Array.fold_left (fun acc r -> match r with Some s -> acc + f s | None -> acc) 0 first.replies
  in
  let count cls = Array.fold_left (fun acc ev -> if class_of ev.kind = cls then acc + 1 else acc) 0 t.stream in
  {
    Report.attempted = n * List.length passes;
    failures = t.setup_problems @ List.concat_map (fun p -> p.failures) passes @ mismatches;
    metrics =
      Report.select Report.end_to_end
        [
          ("suite_s", Stats.sum medians);
          ("unit_ms.gmean", Stats.gmean ~floor:1.0 (List.map (fun x -> x *. 1000.0) medians));
          ("devices", float_of_int (sum_first (fun s -> s.P.k)));
          ("cut", float_of_int (sum_first (fun s -> s.P.cut)));
          ("max_rss_mb", Stats.median (List.map (fun p -> p.rss_mb) passes));
          ("setup_s", Stats.median (probes @ List.map (fun p -> p.setup_s) passes));
        ];
    notes =
      [
        ("requests", Json.Int n);
        ("passes", Json.Int (List.length passes));
        ("cold", Json.Int (count `Cold));
        ("eco", Json.Int (count `Warm));
        ("repeat", Json.Int (count `Hit));
        ("latency_ms.p50", Json.Float (Stats.quantile (all_ms None) 0.5));
        ("latency_ms.p95", Json.Float (Stats.quantile (all_ms None) 0.95));
        ("cold_latency_ms.p50", Json.Float (Stats.median (all_ms (Some `Cold))));
        ("warm_latency_ms.p50", Json.Float (Stats.median (all_ms (Some `Warm))));
        ("hit_latency_ms.p50", Json.Float (Stats.median (all_ms (Some `Hit))));
      ];
  }

(* --- in-process replay ----------------------------------------------- *)

let span = Layers.span

let get_ok what = function Ok v -> v | Error e -> failwith (what ^ ": " ^ e)

(* Answers one request line the way [Serve.Engine] does, one bench span
   per stage. *)
let replay_one cache line =
  let req =
    span "bench.protocol" (fun () ->
        match P.op_of_line line with
        | Ok (P.Partition r) -> r
        | Ok _ -> failwith "not a partition request"
        | Error e -> failwith e)
  in
  let device = Option.get (Device.find req.P.device) in
  let config =
    let c = { Fpart.Config.default with Fpart.Config.delta = req.P.delta } in
    match req.P.seed with Some s -> { c with Fpart.Config.seed = s } | None -> c
  in
  let text = function P.Src_text s -> s | P.Src_path p -> read_file p in
  let name, hg, partfile =
    span "bench.load" (fun () ->
        let path = match req.P.netlist with P.Path p -> p | _ -> failwith "not a path" in
        let m = get_ok path (Netlist.Blif.parse_file path) in
        match req.P.eco with
        | None -> (m.Netlist.Blif.model_name, m.Netlist.Blif.graph, None)
        | Some eco ->
          let dl = get_ok "delta" (Netlist.Delta.parse_string (text eco.P.eco_delta)) in
          let hg = get_ok "delta" (Netlist.Delta.apply dl m.Netlist.Blif.graph) in
          let pf = get_ok "partfile" (Netlist.Partfile.parse_string (text eco.P.eco_partfile)) in
          (m.Netlist.Blif.model_name, hg, Some pf))
  in
  let net_digest, cfg_digest, key =
    span "bench.digest" (fun () ->
        let nd = Hg.digest hg in
        let cd = Fpart.Config.digest ~extra:(Printf.sprintf "runs=%d" req.P.runs) config in
        ( nd,
          cd,
          Serve.Cache.key ~netlist_digest:nd ~device:device.Device.dev_name ~config_digest:cd
            ~runs:req.P.runs ))
  in
  let success ~mode ~cache:tag ~t0 ~k ~assignment ~feasible ~cut ~total_pins ~m_lower =
    let wall_ms = (Clock.now () -. t0) *. 1000.0 in
    span "bench.protocol" (fun () ->
        let pf =
          get_ok "partfile"
            (Netlist.Partfile.of_assignment_checked hg ~circuit:name
               ~delta:(Fpart.Config.delta_for config device)
               ~block_devices:(Array.make k device.Device.dev_name) ~assignment)
        in
        {
          P.k;
          feasible;
          cut;
          total_pins;
          m_lower;
          wall_ms;
          cache = tag;
          mode;
          netlist_digest = net_digest;
          config_digest = cfg_digest;
          partition = Netlist.Partfile.to_string pf;
        })
  in
  let cold ~mode ~cache =
    let t0 = Clock.now () in
    let r = span "bench.cold" (fun () -> Fpart.Driver.run ~config hg device) in
    success ~mode ~cache ~t0 ~k:r.Fpart.Driver.k ~assignment:r.Fpart.Driver.assignment
      ~feasible:r.Fpart.Driver.feasible ~cut:r.Fpart.Driver.cut
      ~total_pins:r.Fpart.Driver.total_pins ~m_lower:r.Fpart.Driver.m_lower
  in
  let s =
    match partfile with
    | Some partfile -> (
      let t0 = Clock.now () in
      match
        span "bench.warm" (fun () -> Serve.Eco.relegalize ~config ~device ~partfile hg)
      with
      | Ok (Serve.Eco.Warm { assignment; k; cut; total_pins; m_lower; _ }) ->
        success ~mode:"warm" ~cache:"bypass" ~t0 ~k ~assignment ~feasible:true ~cut
          ~total_pins ~m_lower
      | Ok (Serve.Eco.Cold_needed _) -> cold ~mode:"cold-fallback" ~cache:"bypass"
      | Error e -> failwith e)
    | None -> (
      match span "bench.cache" (fun () -> Serve.Cache.find cache key) with
      | Some s -> { s with P.cache = "hit" }
      | None ->
        let s = cold ~mode:"cold" ~cache:"miss" in
        span "bench.cache" (fun () -> Serve.Cache.add cache key s);
        s)
  in
  span "bench.protocol" (fun () ->
      ignore (P.response_to_line { P.resp_id = req.P.id; outcome = Ok s }));
  s

(* Replays the stream; returns the total time and the failure lines
   (a reply that differs from the daemon's is a failure). *)
let replay t (daemon : pass) ~wrap =
  let cache = Serve.Cache.create () in
  let last = Hashtbl.create 32 in
  let total = ref 0.0 and failures = ref [] in
  Array.iteri
    (fun i ev ->
      let prev = Option.value ~default:"" (Hashtbl.find_opt last ev.design) in
      let line = request_line t ev ~prev_partition:prev in
      let t0 = Clock.now () in
      match wrap (fun () -> replay_one cache line) with
      | exception e -> failures := (ev.id ^ ": replay: " ^ Printexc.to_string e) :: !failures
      | s -> (
        total := !total +. (Clock.now () -. t0);
        (match ev.kind with
        | Cold | Eco _ -> Hashtbl.replace last ev.design s.P.partition
        | Repeat _ -> ());
        match daemon.replies.(i) with
        | Some d when payload d = payload s -> ()
        | _ -> failures := (ev.id ^ ": replay differs from the daemon (mismatch)") :: !failures))
    t.stream;
  (!total, List.rev !failures)

let traced t =
  let layers = Layers.create () in
  let daemon = run_pass t in
  let n = Array.length t.stream in
  let transport = ref 0.0 and kb = ref 0.0 in
  Array.iteri
    (fun i r ->
      match (r, daemon.rtt.(i)) with
      | Some s, Some rtt when s.P.cache <> "hit" ->
        (* a hit carries the wall time of the cold run it replays *)
        transport := !transport +. ((rtt *. 1000.0) -. s.P.wall_ms)
      | _ -> ())
    daemon.replies;
  Array.iter (fun b -> kb := !kb +. (float_of_int b /. 1024.0)) daemon.bytes;
  Layers.set layers "serve.transport_ms" !transport;
  Layers.set layers "serve.response_kb" (!kb /. float_of_int n);
  let files = Array.to_list (Array.map (fun d -> d.blif) t.designs) in
  let bytes = List.fold_left (fun acc f -> acc + (Unix.stat f).Unix.st_size) 0 files in
  let t0 = Clock.now () in
  List.iter (fun f -> ignore (Netlist.Blif.parse_file f)) files;
  let parse_s = Clock.now () -. t0 in
  Layers.set layers "netlist.blif_parse_ms" (parse_s *. 1000.0);
  Layers.set layers "netlist.blif_mb_per_s" (float_of_int bytes /. 1e6 /. parse_s);
  let c0 = Unix.times () in
  let plain, f1 = replay t daemon ~wrap:(fun f -> f ()) in
  let c1 = Unix.times () in
  let with_trace, f2 = replay t daemon ~wrap:(Layers.traced layers) in
  Layers.set layers "process.cpu_per_wall"
    (Stats.ratio
       (c1.Unix.tms_utime -. c0.Unix.tms_utime +. (c1.Unix.tms_stime -. c0.Unix.tms_stime))
       plain);
  Layers.set layers "obs.trace_overhead" (Stats.ratio with_trace plain -. 1.0);
  let count p = Array.fold_left (fun acc ev -> if p ev then acc + 1 else acc) 0 t.stream in
  let replies p =
    let c = ref 0 in
    Array.iteri (fun i ev -> match daemon.replies.(i) with Some s when p ev s -> incr c | _ -> ()) t.stream;
    !c
  in
  let is_eco ev = match ev.kind with Eco _ -> true | _ -> false in
  Layers.set layers "serve.cache_hit_ratio"
    (Stats.ratio
       (float_of_int (replies (fun _ s -> s.P.cache = "hit")))
       (float_of_int (count (fun ev -> not (is_eco ev)))));
  Layers.set layers "serve.eco_warm_ratio"
    (Stats.ratio
       (float_of_int (replies (fun ev s -> is_eco ev && s.P.mode = "warm")))
       (float_of_int (count is_eco)));
  {
    Report.attempted = 3 * n;
    failures = t.setup_problems @ daemon.failures @ f1 @ f2;
    metrics = Layers.finish layers;
    notes = [ ("requests", Json.Int n) ];
  }
