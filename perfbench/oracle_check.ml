(* Recount of a partition result from scratch with
   [Fpart_check.Oracle]: sizes, flip-flops, pins and cut, every block
   within the device limits, and the reported k and cut equal to the
   recount.  Returns the list of problems ([[]] when the result holds). *)

let partition hg device ~delta ~k ~cut ~assign =
  let n = Hypergraph.Hgraph.num_nodes hg in
  if Array.length assign <> n then
    [ Printf.sprintf "assignment covers %d of %d nodes" (Array.length assign) n ]
  else if Array.exists (fun b -> b < 0 || b >= k) assign then
    [ Printf.sprintf "assignment names a block outside 0..%d" (k - 1) ]
  else begin
    let b = Fpart_check.Oracle.recompute hg ~k ~assign:(fun v -> assign.(v)) in
    let s_max = Device.s_max device ~delta and t_max = device.Device.t_max in
    let f_max = Device.ff_max device ~delta in
    let problems = ref [] in
    let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
    Array.iteri
      (fun i cells ->
        if cells = 0 then add "block %d is empty" i;
        if b.sizes.(i) > s_max then add "block %d size %d > S_MAX %d" i b.sizes.(i) s_max;
        if b.pins.(i) > t_max then add "block %d pins %d > T_MAX %d" i b.pins.(i) t_max;
        match f_max with
        | Some f when b.flops.(i) > f -> add "block %d flops %d > %d" i b.flops.(i) f
        | _ -> ())
      b.cells;
    if b.cut <> cut then add "reported cut %d, recount %d" cut b.cut;
    List.rev !problems
  end
