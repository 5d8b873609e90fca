(* Golden bit-identity pins for the move-selection engine.

   Every expected line below was recorded from the engine as it stood
   before move selection became incremental (memoised per-direction
   scans and lookahead gains).  Selection changes that are meant to be
   pure speed-ups must leave every line unchanged: the MD5 of the final
   assignment together with the [Sanchis.report] counters (passes,
   applied and retained moves, restarts) pins the whole move trajectory,
   not just its end point.

   The matrix covers pair and all-blocks specs up to twelve active
   blocks, unit and weighted cells (sizes 1-6 under tight size windows,
   so whole scanned prefixes are illegal and get stashed), pads, gain
   levels 1-3, LIFO and FIFO buckets, cut and pin gain, delta and
   recompute maintenance, and zero and non-zero tie salts.  Two flat
   FPART runs on MCNC surrogates and one multilevel run close the loop
   end to end. *)

module Hg = Hypergraph.Hgraph
module State = Partition.State
module Cost = Partition.Cost
module Sm = Prng.Splitmix

let md5_of_assignment a =
  Digest.to_hex
    (Digest.string
       (String.concat "," (Array.to_list (Array.map string_of_int a))))

(* A local-wiring circuit whose cells weigh 1-6, with one net per pad. *)
let weighted_circuit ~cells ~pads seed =
  let rng = Sm.create seed in
  let b = Hg.Builder.create () in
  let cs =
    Array.init cells (fun i ->
        Hg.Builder.add_cell b ~name:(Printf.sprintf "c%d" i)
          ~size:(1 + Sm.int rng 6))
  in
  for i = 0 to cells - 2 do
    ignore
      (Hg.Builder.add_net b ~name:(Printf.sprintf "ch%d" i)
         [ cs.(i); cs.(i + 1) ])
  done;
  for i = 0 to cells - 1 do
    let deg = 2 + Sm.int rng 4 in
    let pins = List.init deg (fun _ -> cs.((i + Sm.int rng 24) mod cells)) in
    ignore (Hg.Builder.add_net b ~name:(Printf.sprintf "n%d" i) pins)
  done;
  for i = 0 to pads - 1 do
    let p = Hg.Builder.add_pad b ~name:(Printf.sprintf "p%d" i) in
    ignore
      (Hg.Builder.add_net b ~name:(Printf.sprintf "pn%d" i)
         [ p; cs.(Sm.int rng cells); cs.(Sm.int rng cells) ])
  done;
  Hg.Builder.freeze b

let unit_circuit ~cells seed = Fpart_testgen.circuit ~cells ~pads:12 seed

type case = {
  name : string;
  hg : Hg.t Lazy.t;
  k : int;
  active : int array;
  slack : int option;
      (* [Some s]: every active block may shrink or grow by at most [s]
         size units from its starting size; [None]: free windows *)
  config : Sanchis.config;
  expect : string;
}

let cfg ?(levels = 2) ?(fifo = false) ?(pin = false) ?(recompute = false)
    ?(salt = 0) () =
  {
    Sanchis.default_config with
    gain_levels = levels;
    bucket_discipline =
      (if fifo then Gainbucket.Bucket_array.Fifo
       else Gainbucket.Bucket_array.Lifo);
    gain_mode = (if pin then Sanchis.Pin_gain else Sanchis.Cut_gain);
    gain_update = (if recompute then Sanchis.Recompute else Sanchis.Delta);
    tie_salt = salt;
  }

let all k = Array.init k Fun.id
let u200 = lazy (unit_circuit ~cells:200 3)
let u360 = lazy (unit_circuit ~cells:360 5)
let w160 = lazy (weighted_circuit ~cells:160 ~pads:10 7)
let w300 = lazy (weighted_circuit ~cells:300 ~pads:16 11)

let cases =
  [
    { name = "unit pair k2"; hg = u200; k = 2; active = all 2; slack = None;
      config = cfg ();
      expect =
        "a3a2ada6d35fd9c4872eb8fa882f89bd passes=27 applied=5724 retained=1111 restarts=6" };
    { name = "unit all k4 level1"; hg = u200; k = 4; active = all 4;
      slack = None; config = cfg ~levels:1 ();
      expect =
        "18b231c219bdfe7d53d5dfbb5ada3b27 passes=35 applied=7420 retained=924 restarts=7" };
    { name = "unit pair of 4 level3 fifo"; hg = u200; k = 4;
      active = [| 1; 3 |]; slack = None; config = cfg ~levels:3 ~fifo:true ();
      expect =
        "53a4729f30bdf08ba06dd56ef57e90b6 passes=11 applied=1001 retained=371 restarts=3" };
    { name = "unit all k6 pin recompute"; hg = u200; k = 6; active = all 6;
      slack = None; config = cfg ~pin:true ~recompute:true ();
      expect =
        "75e963f4deffeef5ce84226f12aa515e passes=23 applied=4876 retained=654 restarts=7" };
    { name = "unit all k12"; hg = u360; k = 12; active = all 12; slack = None;
      config = cfg ();
      expect =
        "83a2a1b2e4d2795da773826c48757402 passes=27 applied=10044 retained=1634 restarts=7" };
    { name = "unit all k12 salt fifo pin"; hg = u360; k = 12; active = all 12;
      slack = None; config = cfg ~salt:0x2a5 ~fifo:true ~pin:true ();
      expect =
        "122a2da16762cfad9d605e6bcc70c93f passes=30 applied=11160 retained=1690 restarts=7" };
    { name = "unit pair k3 recompute salt"; hg = u200; k = 3;
      active = [| 0; 2 |]; slack = Some 3;
      config = cfg ~recompute:true ~salt:5 ();
      expect =
        "483a0e9134914f9740d13a71dc57860e passes=15 applied=2115 retained=697 restarts=3" };
    { name = "weighted pair k2"; hg = w160; k = 2; active = all 2;
      slack = Some 4; config = cfg ();
      expect =
        "0558eae00438a8201ba4348d22daa88f passes=10 applied=1550 retained=125 restarts=3" };
    { name = "weighted all k3 level3 recompute"; hg = w160; k = 3;
      active = all 3; slack = Some 3;
      config = cfg ~levels:3 ~recompute:true ();
      expect =
        "062d1d95ae651fbcfb783ded012d758e passes=13 applied=1911 retained=295 restarts=3" };
    { name = "weighted all k5 fifo pin salt"; hg = w160; k = 5; active = all 5;
      slack = Some 5; config = cfg ~fifo:true ~pin:true ~salt:7 ();
      expect =
        "7a4609e213c7114ab590f6cb07ddf05c passes=12 applied=1829 retained=267 restarts=3" };
    { name = "weighted all k8 level1"; hg = w300; k = 8; active = all 8;
      slack = Some 2; config = cfg ~levels:1 ();
      expect =
        "d28cff24354529f50cf1149a73fd566d passes=14 applied=2691 retained=492 restarts=3" };
    { name = "weighted all k12 salt"; hg = w300; k = 12; active = all 12;
      slack = Some 4; config = cfg ~salt:91 ();
      expect =
        "703455ca167536a77ccc6e98058ba472 passes=12 applied=3105 retained=1037 restarts=3" };
    { name = "weighted pair of 6 pin"; hg = w300; k = 6; active = [| 0; 5 |];
      slack = Some 3; config = cfg ~pin:true ();
      expect =
        "73a4340eacf72b902720c2ad96221c05 passes=11 applied=1010 retained=91 restarts=3" };
    { name = "weighted all k4 free fifo level3 recompute salt"; hg = w160;
      k = 4; active = all 4; slack = None;
      config = cfg ~fifo:true ~levels:3 ~recompute:true ~salt:3 ();
      expect =
        "dc634ae037f1933a659663c7b325f5b0 passes=10 applied=1700 retained=107 restarts=4" };
    { name = "weighted all k12 level3 pin fifo"; hg = w300; k = 12;
      active = all 12; slack = Some 6;
      config = cfg ~levels:3 ~pin:true ~fifo:true ();
      expect =
        "99dbd167521a63da0f08dd09d94f31d3 passes=12 applied=3168 retained=885 restarts=3" };
  ]

let run_case c () =
  let h = Lazy.force c.hg in
  let k = c.k in
  let st = State.create h ~k ~assign:(fun v -> ((v * 13) + (v / 7)) mod k) in
  let lower = Array.make k 0 and upper = Array.make k (max_int / 2) in
  (match c.slack with
  | None -> ()
  | Some s ->
    Array.iter
      (fun b ->
        lower.(b) <- State.size_of st b - s;
        upper.(b) <- State.size_of st b + s)
      c.active);
  let remainder = c.active.(Array.length c.active - 1) in
  let ctx = Cost.context_of Device.xc3020 ~delta:0.9 h in
  let eval st =
    Cost.evaluate Cost.default_params ctx st ~remainder:(Some remainder)
      ~step_k:1
  in
  let r =
    Sanchis.improve st
      ~spec:{ Sanchis.active = c.active; remainder = Some remainder; lower; upper }
      ~config:c.config ~eval
  in
  let got =
    Printf.sprintf "%s passes=%d applied=%d retained=%d restarts=%d"
      (md5_of_assignment (State.assignment st))
      r.Sanchis.passes_run r.Sanchis.moves_applied r.Sanchis.moves_retained
      r.Sanchis.restarts
  in
  Alcotest.(check string) c.name c.expect got

let result_line (r : Fpart.Driver.result) =
  Printf.sprintf "%s k=%d cut=%d feasible=%b"
    (md5_of_assignment r.Fpart.Driver.assignment)
    r.Fpart.Driver.k r.Fpart.Driver.cut r.Fpart.Driver.feasible

let driver_case name device expect () =
  let c = Option.get (Netlist.Mcnc.find name) in
  let h = Netlist.Mcnc.surrogate c device.Device.family in
  Alcotest.(check string) name expect (result_line (Fpart.Driver.run h device))

let test_mlevel_rent () =
  let h =
    Netlist.Generator.generate
      (Netlist.Generator.rent_spec ~name:"rent" ~cells:2000 ~seed:1)
  in
  let r = Mlevel.Engine.run h Device.v1250 in
  Alcotest.(check string) "rent:2000 on V1250"
    "8044a911e9ed0d499c55f413ee7ec7c3 k=2 cut=26 feasible=true" (result_line r.Mlevel.Engine.res)

let () =
  Alcotest.run "golden"
    [
      ( "sanchis",
        List.map (fun c -> Alcotest.test_case c.name `Quick (run_case c)) cases );
      ( "end-to-end",
        [
          Alcotest.test_case "fpart c3540 XC3020" `Quick
            (driver_case "c3540" Device.xc3020
               "17c1e3d7b0917b012ef0585331327b87 k=5 cut=91 feasible=true");
          Alcotest.test_case "fpart s5378 XC3042" `Quick
            (driver_case "s5378" Device.xc3042
               "c856928813064d78f0e5a2e81f566d56 k=3 cut=50 feasible=true");
          Alcotest.test_case "mlevel rent:2000 V1250" `Quick test_mlevel_rent;
        ] );
    ]
