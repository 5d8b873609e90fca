(* Private top-index: directions bucketed by their current top gain, the
   same intrusive doubly-linked layout as [Bucket_array] but over
   direction ids.  Deliberately counter-free — it is bookkeeping of the
   bucket layer itself, and ticking the [bucket.*] workload counters for
   it would pollute the very metrics the perf benches diff. *)
module Top_index = struct
  type t = {
    max_gain : int;
    head : int array;
    prev : int array;
    next : int array;
    gain : int array;
    present : bool array;
    mutable count : int;
    mutable top : int;
  }

  let create ~directions ~max_gain =
    {
      max_gain;
      head = Array.make ((2 * max_gain) + 1) (-1);
      prev = Array.make directions (-1);
      next = Array.make directions (-1);
      gain = Array.make directions 0;
      present = Array.make directions false;
      count = 0;
      top = -1;
    }

  let unlink t dir =
    let p = t.prev.(dir) and n = t.next.(dir) in
    let i = t.gain.(dir) + t.max_gain in
    if p >= 0 then t.next.(p) <- n else t.head.(i) <- n;
    if n >= 0 then t.prev.(n) <- p;
    t.present.(dir) <- false;
    t.prev.(dir) <- -1;
    t.next.(dir) <- -1;
    t.count <- t.count - 1

  let link t dir g =
    let i = g + t.max_gain in
    let old_head = t.head.(i) in
    t.head.(i) <- dir;
    t.prev.(dir) <- -1;
    t.next.(dir) <- old_head;
    if old_head >= 0 then t.prev.(old_head) <- dir;
    t.gain.(dir) <- g;
    t.present.(dir) <- true;
    t.count <- t.count + 1;
    if i > t.top then t.top <- i

  (* Record that [dir]'s bucket currently tops out at [g]. *)
  let set t dir g =
    if t.present.(dir) then begin
      if t.gain.(dir) <> g then begin
        unlink t dir;
        link t dir g
      end
    end
    else link t dir g

  (* Record that [dir] has no eligible top (empty or disabled). *)
  let drop t dir = if t.present.(dir) then unlink t dir

  let settle t =
    if t.count = 0 then t.top <- -1
    else
      while t.top >= 0 && t.head.(t.top) < 0 do
        t.top <- t.top - 1
      done

  let top_gain t =
    settle t;
    if t.top < 0 then None else Some (t.top - t.max_gain)

  (* Directions whose top equals the global best, written ascending
     into [buf] (insertion sort: a handful of tied directions). *)
  let top_dirs t buf =
    settle t;
    if t.top < 0 then 0
    else begin
      let n = ref 0 in
      let dir = ref t.head.(t.top) in
      while !dir >= 0 do
        let d = !dir in
        let i = ref !n in
        while !i > 0 && buf.(!i - 1) > d do
          buf.(!i) <- buf.(!i - 1);
          decr i
        done;
        buf.(!i) <- d;
        incr n;
        dir := t.next.(d)
      done;
      !n
    end

  let clear t =
    Array.fill t.head 0 (Array.length t.head) (-1);
    Array.fill t.prev 0 (Array.length t.prev) (-1);
    Array.fill t.next 0 (Array.length t.next) (-1);
    Array.fill t.present 0 (Array.length t.present) false;
    t.count <- 0;
    t.top <- -1
end

type t = {
  buckets : Bucket_array.t array;
  enabled : bool array;
  versions : int array;
  tops : Top_index.t;
}

let create ?discipline ~directions ~cells ~max_gain () =
  {
    buckets =
      Array.init directions (fun _ ->
          Bucket_array.create ?discipline ~cells ~max_gain ());
    enabled = Array.make directions true;
    versions = Array.make directions 0;
    tops = Top_index.create ~directions ~max_gain;
  }

let bucket t dir = t.buckets.(dir)

(* Re-derive [dir]'s entry in the top index from its bucket.  Every
   mutation below ends here, so the index is always exact and
   [best_gain]/[best_dirs] never rescan the other directions. *)
let sync t dir =
  if t.enabled.(dir) then
    match Bucket_array.top_gain t.buckets.(dir) with
    | Some g -> Top_index.set t.tops dir g
    | None -> Top_index.drop t.tops dir
  else Top_index.drop t.tops dir

let bump t dir = t.versions.(dir) <- t.versions.(dir) + 1

let insert t ~dir cell gain =
  Bucket_array.insert t.buckets.(dir) cell gain;
  bump t dir;
  sync t dir

let remove t ~dir cell =
  Bucket_array.remove t.buckets.(dir) cell;
  bump t dir;
  sync t dir

let update t ~dir cell gain =
  Bucket_array.update t.buckets.(dir) cell gain;
  bump t dir;
  sync t dir

let version t dir = t.versions.(dir)

let mem t ~dir cell = Bucket_array.mem t.buckets.(dir) cell
let gain_of t ~dir cell = Bucket_array.gain_of t.buckets.(dir) cell

let set_enabled t dir flag =
  if t.enabled.(dir) <> flag then begin
    t.enabled.(dir) <- flag;
    sync t dir
  end

let enabled t dir = t.enabled.(dir)

let best_gain t = Top_index.top_gain t.tops

let best_dirs t buf = Top_index.top_dirs t.tops buf

let total_cells t =
  Array.fold_left (fun acc b -> acc + Bucket_array.cardinal b) 0 t.buckets

let clear t =
  Array.iter Bucket_array.clear t.buckets;
  Array.fill t.enabled 0 (Array.length t.enabled) true;
  Array.iteri (fun dir _ -> bump t dir) t.versions;
  Top_index.clear t.tops

let check t =
  let fail fmt = Format.kasprintf (fun s -> Error s) fmt in
  let rec go dir =
    if dir >= Array.length t.buckets then Ok ()
    else
      match Bucket_array.check t.buckets.(dir) with
      | Error e -> fail "direction %d: %s" dir e
      | Ok () ->
        let expect =
          if t.enabled.(dir) then Bucket_array.top_gain t.buckets.(dir) else None
        in
        let stored =
          if t.tops.Top_index.present.(dir) then Some t.tops.Top_index.gain.(dir)
          else None
        in
        if expect <> stored then
          fail "direction %d: top index holds %s but bucket tops at %s" dir
            (match stored with None -> "nothing" | Some g -> string_of_int g)
            (match expect with None -> "nothing" | Some g -> string_of_int g)
        else go (dir + 1)
  in
  go 0
