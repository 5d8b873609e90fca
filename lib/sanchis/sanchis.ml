module Hg = Hypergraph.Hgraph
module State = Partition.State
module Cost = Partition.Cost
module Snapshot = Partition.Snapshot
module Stack = Partition.Solution_stack
module Bucket = Gainbucket.Bucket_array
module Dirset = Gainbucket.Direction_set
module Obs = Fpart_obs.Metrics
module Recorder = Fpart_obs.Recorder
module Json = Fpart_obs.Json

(* Engine workload counters (always on) and the gain distribution of
   the applied moves (recorded only while observability is enabled).
   [sanchis.delta.updates] counts bucket entries the incremental engine
   actually relinked; [sanchis.delta.avoided] counts (neighbour,
   direction) pairs whose accumulated delta was zero — each of those
   would have been a full gain recomputation under [Recompute]. *)
let c_improves = Obs.counter "sanchis.improve_calls"
let c_passes = Obs.counter "sanchis.passes"
let c_moves = Obs.counter "sanchis.moves"
let c_rewound = Obs.counter "sanchis.rewound_moves"
let c_restarts = Obs.counter "sanchis.restarts"
let c_delta_updates = Obs.counter "sanchis.delta.updates"
let c_delta_avoided = Obs.counter "sanchis.delta.avoided"
let h_move_gain = Obs.histogram "sanchis.move_gain"

(* Move-selection workload (always on): selection rounds, tied
   directions answered from their memo or rescanned, and lookahead
   vectors answered from the per-(cell, target) memo.  Tallied in the
   context and flushed once per pass. *)
let c_select_rounds = Obs.counter "sanchis.select.rounds"
let c_dir_reused = Obs.counter "sanchis.select.dir_reused"
let c_dir_rescanned = Obs.counter "sanchis.select.dir_rescanned"
let c_lookahead_reused = Obs.counter "sanchis.select.lookahead_reused"


type gain_mode = Cut_gain | Pin_gain
type gain_update = Delta | Recompute

type config = {
  gain_levels : int;
  scan_limit : int;
  max_passes : int;
  stack_depth : int;
  gain_mode : gain_mode;
  gain_update : gain_update;
  drift_limit : int option;
  tie_salt : int;
  bucket_discipline : Bucket.discipline;
  on_move : (State.t -> unit) option;
  on_gain_update : (State.t -> cell:int -> target:int -> gain:int -> unit) option;
}

let default_config =
  {
    gain_levels = 2;
    scan_limit = 16;
    max_passes = 8;
    stack_depth = 4;
    gain_mode = Cut_gain;
    gain_update = Delta;
    drift_limit = None;
    tie_salt = 0;
    bucket_discipline = Bucket.Lifo;
    on_move = None;
    on_gain_update = None;
  }

type spec = {
  active : int array;
  remainder : int option;
  lower : int array;
  upper : int array;
}

type report = {
  best : Cost.value;
  passes_run : int;
  moves_applied : int;
  moves_retained : int;
  restarts : int;
}

(* Per-improve-call mutable context shared by all passes. *)
type ctx = {
  st : State.t;
  hg : Hg.t;
  cfg : config;
  spec : spec;
  eval : State.t -> Cost.value;
  nb : int;                     (* number of active blocks *)
  pos : int array;              (* global block -> active index, or -1 *)
  cells : Dirset.t;             (* cells; nb*nb dirs, diagonal unused *)
  pads : Dirset.t;              (* pads: size-neutral, never window-gated *)
  locked : bool array;          (* per node, reset each pass *)
  locked_cnt : int array;       (* net * nb + active index: locked pins *)
  (* Scratch of the delta-gain engine, reused across moves.  The
     [d_*] arrays buffer the changed-nets summary reported by
     [State.move ~on_net]; [touched]/[touch_stamp] record affected
     neighbours in first-incidence order; [delta] accumulates per
     (cell, target-index) gain changes. *)
  d_nets : int array;
  d_ca : int array;
  d_cb : int array;
  d_span : int array;
  mutable d_len : int;
  touched : int array;
  mutable touched_len : int;
  touch_stamp : int array;
  mutable stamp : int;
  delta : int array;            (* cell * nb + target index *)
  (* Move selection (see [select]).  [levels] lookahead gains (levels
     2..gain_levels) rank the tied cells; vectors are stored flat, one
     [levels]-long run per entry.  [scan] receives a bucket prefix,
     [cell_dirs]/[pad_dirs] the tied directions of a round, [sel_*] the
     best candidate so far ([sel_cell] = -1: none). *)
  levels : int;
  scan : int array;
  cell_dirs : int array;
  pad_dirs : int array;
  mutable sel_cell : int;
  mutable sel_to : int;
  mutable sel_bal : int;
  sel_la : int array;
  (* Per-direction memo of the local first-best, one slot per (set,
     direction) with the cell set's directions first: the direction
     set's version and the two blocks' move epochs it was computed at
     ([memo_ver] = -1: nothing memoised), the winner (-1: no legal
     cell), its balance and lookahead. *)
  epoch : int array;            (* per active block: moves in or out *)
  memo_ver : int array;
  memo_ea : int array;
  memo_eb : int array;
  memo_cell : int array;
  memo_bal : int array;
  memo_la : int array;
  (* Per-(cell, target index) lookahead memo: [la_ok] flags the entries
     of [la_val] that are current. *)
  la_ok : Bytes.t;
  la_val : int array;
  mutable n_rounds : int;
  mutable n_reused : int;
  mutable n_rescanned : int;
  mutable n_la_reused : int;
  (* Telemetry position: which execution of this improve call is
     running, and which pass within it (1-based; see the [pass]
     records in docs/OBSERVABILITY.md). *)
  mutable tel_execution : int;
  mutable tel_pass : int;
}

let dir_index ctx ai bi = (ai * ctx.nb) + bi

let make_ctx st spec cfg eval =
  let hg = State.hypergraph st in
  let k = State.k st in
  let nb = Array.length spec.active in
  if nb < 2 then invalid_arg "Sanchis.improve: fewer than two active blocks";
  let pos = Array.make k (-1) in
  Array.iteri
    (fun i b ->
      if b < 0 || b >= k then invalid_arg "Sanchis.improve: block out of range";
      if pos.(b) >= 0 then invalid_arg "Sanchis.improve: repeated active block";
      pos.(b) <- i)
    spec.active;
  if Array.length spec.lower < k || Array.length spec.upper < k then
    invalid_arg "Sanchis.improve: lower/upper must cover all blocks";
  let n = Hg.num_nodes hg in
  let max_deg = max 1 (Hg.max_node_degree hg) in
  let max_gain =
    match cfg.gain_mode with Cut_gain -> max_deg | Pin_gain -> 2 * max_deg
  in
  let levels = max 0 (cfg.gain_levels - 1) in
  let slots = 2 * nb * nb in
  let la_entries = if levels > 0 then n * nb else 0 in
  {
    st;
    hg;
    cfg;
    spec;
    eval;
    nb;
    pos;
    cells =
      Dirset.create ~discipline:cfg.bucket_discipline ~directions:(nb * nb)
        ~cells:n ~max_gain ();
    pads =
      Dirset.create ~discipline:cfg.bucket_discipline ~directions:(nb * nb)
        ~cells:n ~max_gain ();
    locked = Array.make n false;
    locked_cnt = Array.make (Hg.num_nets hg * nb) 0;
    d_nets = Array.make max_deg 0;
    d_ca = Array.make max_deg 0;
    d_cb = Array.make max_deg 0;
    d_span = Array.make max_deg 0;
    d_len = 0;
    touched = Array.make (max n 1) 0;
    touched_len = 0;
    touch_stamp = Array.make (max n 1) 0;
    stamp = 0;
    delta = Array.make (max (n * nb) 1) 0;
    levels;
    scan = Array.make (max 1 cfg.scan_limit) 0;
    cell_dirs = Array.make (nb * nb) 0;
    pad_dirs = Array.make (nb * nb) 0;
    sel_cell = -1;
    sel_to = -1;
    sel_bal = 0;
    sel_la = Array.make levels 0;
    epoch = Array.make nb 0;
    memo_ver = Array.make slots (-1);
    memo_ea = Array.make slots 0;
    memo_eb = Array.make slots 0;
    memo_cell = Array.make slots (-1);
    memo_bal = Array.make slots 0;
    memo_la = Array.make (slots * levels) 0;
    la_ok = Bytes.make la_entries '\000';
    la_val = Array.make (la_entries * levels) 0;
    n_rounds = 0;
    n_reused = 0;
    n_rescanned = 0;
    n_la_reused = 0;
    tel_execution = 0;
    tel_pass = 0;
  }

(* Direction (a -> b) is open when block [a] may still shed size and
   block [b] may still absorb it (block-level test, paper section 3.5:
   buckets are retired as blocks hit the move-region boundary). *)
let direction_open ctx a b =
  State.size_of ctx.st a > ctx.spec.lower.(a)
  && State.size_of ctx.st b < ctx.spec.upper.(b)

(* The open/closed state maps onto the direction set's enabled flags so
   the top index skips closed directions.  Refreshed for every
   direction at pass start and, after each applied move, only for the
   directions touching the two blocks whose sizes changed. *)
let refresh_direction ctx ai bi =
  if ai <> bi then
    Dirset.set_enabled ctx.cells (dir_index ctx ai bi)
      (direction_open ctx ctx.spec.active.(ai) ctx.spec.active.(bi))

let refresh_all_directions ctx =
  for ai = 0 to ctx.nb - 1 do
    for bi = 0 to ctx.nb - 1 do
      refresh_direction ctx ai bi
    done
  done

let refresh_directions_of ctx a b =
  let pa = ctx.pos.(a) and pb = ctx.pos.(b) in
  for i = 0 to ctx.nb - 1 do
    refresh_direction ctx pa i;
    refresh_direction ctx i pa;
    refresh_direction ctx pb i;
    refresh_direction ctx i pb
  done

(* Exact per-cell size legality (matters for weighted cells).  Pads are
   size-neutral and therefore always legal: on I/O-critical designs the
   terminals must keep migrating even when the size windows have closed
   a direction for logic cells. *)
let cell_legal ctx v b =
  let s = Hg.size ctx.hg v in
  s = 0
  ||
  let a = State.block_of ctx.st v in
  State.size_of ctx.st a - s >= ctx.spec.lower.(a)
  && State.size_of ctx.st b + s <= ctx.spec.upper.(b)

(* Lock-aware lookahead gains for moving [v] from [a] to [b], written to
   [dst.(off) .. dst.(off + levels - 1)] for levels 2..gain_levels:
   Krishnamurthy's formula (positive when the net frees after [i-1] more
   source-side moves, negative when the move cements a net the other
   side could still have freed), restricted to nets inside a∪b.  A net
   scores +1 only at level [ca] and -1 only at level [cb + 1], so one
   walk over [v]'s nets fills every level. *)
let lookahead_into ctx v ~a ~b dst off =
  let nb = ctx.nb and levels = ctx.levels in
  let ai = ctx.pos.(a) and bi = ctx.pos.(b) in
  Array.fill dst off levels 0;
  let nets = Hg.nets_of ctx.hg v in
  for j = 0 to Array.length nets - 1 do
    let e = nets.(j) in
    let ca = State.net_count ctx.st e a and cb = State.net_count ctx.st e b in
    if ca + cb = Hg.net_degree ctx.hg e then begin
      if ctx.locked_cnt.((e * nb) + ai) = 0 && ca >= 2 && ca <= levels + 1 then
        dst.(off + ca - 2) <- dst.(off + ca - 2) + 1;
      if ctx.locked_cnt.((e * nb) + bi) = 0 && cb >= 1 && cb <= levels then
        dst.(off + cb - 1) <- dst.(off + cb - 1) - 1
    end
  done

(* Forget [u]'s memoised lookaheads: one of its nets just changed. *)
let forget_lookahead ctx u =
  if ctx.levels > 0 then Bytes.fill ctx.la_ok (u * ctx.nb) ctx.nb '\000'

let set_for ctx v = if Hg.is_pad ctx.hg v then ctx.pads else ctx.cells

(* Primary gain: classical cut gain, or the paper's future-work variant
   that scores moves by the real change in total pin count. *)
let primary_gain ctx v b =
  match ctx.cfg.gain_mode with
  | Cut_gain -> State.cut_gain ctx.st v b
  | Pin_gain -> State.pin_gain ctx.st v b

let insert_cell ctx v =
  let a = State.block_of ctx.st v in
  let ai = ctx.pos.(a) in
  let set = set_for ctx v in
  Array.iteri
    (fun bi b ->
      if b <> a then
        Dirset.insert set ~dir:(dir_index ctx ai bi) v (primary_gain ctx v b))
    ctx.spec.active

let remove_cell ctx v =
  let a = State.block_of ctx.st v in
  let ai = ctx.pos.(a) in
  let set = set_for ctx v in
  for bi = 0 to ctx.nb - 1 do
    if bi <> ai then Dirset.remove set ~dir:(dir_index ctx ai bi) v
  done

let update_cell ctx v =
  let a = State.block_of ctx.st v in
  let ai = ctx.pos.(a) in
  let set = set_for ctx v in
  Array.iteri
    (fun bi b ->
      if b <> a then begin
        let dir = dir_index ctx ai bi in
        if Dirset.mem set ~dir v then
          Dirset.update set ~dir v (primary_gain ctx v b)
      end)
    ctx.spec.active

(* {2 Delta-gain neighbour update}

   After moving [v]: a → b, only the nets of [v] changed, and for each
   such net only the counts of [a] and [b] and the span (FM's
   critical-net observation).  Pass 1 walks the buffered transitions in
   net order, marks every eligible neighbour the first time it is seen
   and accumulates, per (neighbour, target), the exact per-net gain
   difference [gain_net(after) - gain_net(before)] shared with
   [State.cut_gain]/[pin_gain].  Pass 2 applies each neighbour's total
   delta with one bucket relink per changed direction.

   Bit-identity with [Recompute] relies on ordering: the recompute path
   relinks a neighbour at its {e first} (net, pin) incidence (later
   [update_cell] calls find an equal gain and no-op), with directions in
   ascending active order — exactly the order pass 1 discovers cells
   and pass 2 applies directions.  Delta-zero pairs are skipped, which
   matches [Bucket_array.update]'s equal-gain no-op. *)
let apply_deltas ctx ~v ~a ~b =
  let st = ctx.st in
  let nb = ctx.nb in
  ctx.stamp <- ctx.stamp + 1;
  ctx.touched_len <- 0;
  for i = 0 to ctx.d_len - 1 do
    let e = ctx.d_nets.(i) in
    let ca = ctx.d_ca.(i) and cb = ctx.d_cb.(i) and span = ctx.d_span.(i) in
    let span' =
      span - (if ca = 1 then 1 else 0) + (if cb = 0 then 1 else 0)
    in
    (* Quiet net: in cut mode a net spanning ≥ 3 blocks before and
       after the move contributes 0 to every neighbour gain in both
       states, so the arithmetic is skipped — but its pins are still
       marked, because first-incidence ordering is what keeps the
       bucket layout identical to the recompute path. *)
    let quiet =
      match ctx.cfg.gain_mode with
      | Cut_gain -> span >= 3 && span' >= 3
      | Pin_gain -> false
    in
    let pad = Hg.net_has_pad ctx.hg e in
    Array.iter
      (fun u ->
        if u <> v && (not ctx.locked.(u)) && ctx.pos.(State.block_of st u) >= 0
        then begin
          if ctx.touch_stamp.(u) <> ctx.stamp then begin
            ctx.touch_stamp.(u) <- ctx.stamp;
            ctx.touched.(ctx.touched_len) <- u;
            ctx.touched_len <- ctx.touched_len + 1
          end;
          if not quiet then begin
            let x = State.block_of st u in
            (* counts of blocks other than a/b are untouched by the
               move, so the post-move state still holds their old
               values *)
            let fx_old =
              if x = a then ca
              else if x = b then cb
              else State.net_count st e x
            in
            let fx_new =
              if x = a then ca - 1 else if x = b then cb + 1 else fx_old
            in
            let base = u * nb in
            let accum yi ty_old ty_new =
              let g_old, g_new =
                match ctx.cfg.gain_mode with
                | Cut_gain ->
                  ( State.cut_gain_net ~from_cnt:fx_old ~to_cnt:ty_old ~span,
                    State.cut_gain_net ~from_cnt:fx_new ~to_cnt:ty_new
                      ~span:span' )
                | Pin_gain ->
                  ( State.pin_gain_net ~pad ~from_cnt:fx_old ~to_cnt:ty_old
                      ~span,
                    State.pin_gain_net ~pad ~from_cnt:fx_new ~to_cnt:ty_new
                      ~span:span' )
              in
              if g_new <> g_old then
                ctx.delta.(base + yi) <- ctx.delta.(base + yi) + g_new - g_old
            in
            if span' <> span || x = a || x = b then
              (* the source count or the span changed: every direction
                 of [u] can shift *)
              for yi = 0 to nb - 1 do
                let y = ctx.spec.active.(yi) in
                if y <> x then begin
                  let ty_old =
                    if y = a then ca
                    else if y = b then cb
                    else State.net_count st e y
                  in
                  let ty_new =
                    if y = a then ca - 1
                    else if y = b then cb + 1
                    else ty_old
                  in
                  accum yi ty_old ty_new
                end
              done
            else begin
              (* critical-net fast path: with the span and [u]'s own
                 count untouched, only the targets whose counts moved —
                 [a] and [b] — can change [u]'s gains *)
              accum ctx.pos.(a) ca (ca - 1);
              accum ctx.pos.(b) cb (cb + 1)
            end
          end
        end)
      (Hg.pins ctx.hg e)
  done;
  let avoided = ref 0 and updates = ref 0 in
  for ti = 0 to ctx.touched_len - 1 do
    let u = ctx.touched.(ti) in
    let x = State.block_of st u in
    let xi = ctx.pos.(x) in
    let set = set_for ctx u in
    let base = u * nb in
    forget_lookahead ctx u;
    for yi = 0 to nb - 1 do
      if yi <> xi then begin
        let d = ctx.delta.(base + yi) in
        if d = 0 then incr avoided
        else begin
          ctx.delta.(base + yi) <- 0;
          let dir = dir_index ctx xi yi in
          if Dirset.mem set ~dir u then begin
            let g = Dirset.gain_of set ~dir u + d in
            Dirset.update set ~dir u g;
            incr updates;
            match ctx.cfg.on_gain_update with
            | None -> ()
            | Some f -> f st ~cell:u ~target:ctx.spec.active.(yi) ~gain:g
          end
        end
      end
    done
  done;
  Obs.add c_delta_avoided !avoided;
  Obs.add c_delta_updates !updates

(* {2 Move selection}

   A selection round takes the globally best primary gain from the
   direction sets' top indices and visits every direction tied at it,
   in ascending (a-index, b-index) order with a direction's cell bucket
   before its pad bucket.  Within a direction the first [scan_limit]
   cells of the top bucket are ranked by (lookahead vector desc,
   balance [S_FROM - S_TO] desc, salted id asc — the salt lets
   multi-start runs break ties differently); cells failing the exact
   size test are skipped, and when a whole cell prefix fails it is
   popped into the stash (reinserted by the caller after the move) and
   the round is repeated.

   The ranking is a total preorder whose only ties are one cell reached
   through two directions, so folding each direction's local first-best
   in direction order yields the same winner as ranking every scanned
   cell in one sequence.  That is what lets a direction's local
   first-best be memoised: it depends only on the bucket contents (the
   direction set's version) and on the sizes, net counts and lock counts
   of its two blocks (their move epochs).  A cell's lookahead towards a
   target changes only when one of its nets does, i.e. when the cell is
   a neighbour of an applied move, so it is memoised per (cell, target)
   until then.  A prefix popped to the stash is never memoised. *)

(* Lexicographic order of two [levels]-long lookahead vectors. *)
let compare_lookahead levels x xo y yo =
  let i = ref 0 in
  while !i < levels && x.(xo + !i) = y.(yo + !i) do
    incr i
  done;
  if !i = levels then 0 else compare (x.(xo + !i) : int) y.(yo + !i)

(* Does candidate [c] (lookahead at [la.(lo)..], balance [bal]) rank
   strictly above [c'] (lookahead at [la'.(lo')..], balance [bal'])? *)
let beats ctx ~la ~lo ~bal c ~la' ~lo' ~bal' c' =
  let d = compare_lookahead ctx.levels la lo la' lo' in
  if d <> 0 then d > 0
  else if bal <> bal' then bal > bal'
  else c lxor ctx.cfg.tie_salt < c' lxor ctx.cfg.tie_salt

(* Offset in [la_val] of [v]'s lookahead towards active block [bi],
   computed on a memo miss. *)
let lookahead ctx v ~a ~bi =
  let key = (v * ctx.nb) + bi in
  let off = key * ctx.levels in
  if ctx.levels > 0 then begin
    if Bytes.get ctx.la_ok key = '\001' then
      ctx.n_la_reused <- ctx.n_la_reused + 1
    else begin
      lookahead_into ctx v ~a ~b:ctx.spec.active.(bi) ctx.la_val off;
      Bytes.set ctx.la_ok key '\001'
    end
  end;
  off

(* Recompute the local first-best of direction [dir] of [set] into memo
   [slot].  Returns [false] when the whole scanned cell prefix was
   illegal and got popped into the stash (nothing memoised). *)
let scan_direction ctx ~pads set slot dir ~gain stash =
  ctx.n_rescanned <- ctx.n_rescanned + 1;
  let levels = ctx.levels in
  let ai = dir / ctx.nb and bi = dir mod ctx.nb in
  let a = ctx.spec.active.(ai) and b = ctx.spec.active.(bi) in
  let version = Dirset.version set dir in
  let n = Bucket.read_top (Dirset.bucket set dir) ctx.scan in
  let bal = State.size_of ctx.st a - State.size_of ctx.st b in
  let mo = slot * levels in
  let best = ref (-1) in
  (* deepest cell first, as the historical scan visited them *)
  for i = n - 1 downto 0 do
    let v = ctx.scan.(i) in
    if cell_legal ctx v b then begin
      let lo = lookahead ctx v ~a ~bi in
      if
        !best < 0
        || beats ctx ~la:ctx.la_val ~lo ~bal v ~la':ctx.memo_la ~lo':mo ~bal':bal
             !best
      then begin
        best := v;
        Array.blit ctx.la_val lo ctx.memo_la mo levels
      end
    end
  done;
  if !best < 0 && not pads then begin
    (* whole scanned prefix illegal: pop it so deeper or other-gain
       cells surface next round *)
    for i = n - 1 downto 0 do
      let v = ctx.scan.(i) in
      Dirset.remove set ~dir v;
      stash := (dir, v, gain) :: !stash
    done;
    ctx.memo_ver.(slot) <- -1;
    false
  end
  else begin
    ctx.memo_ver.(slot) <- version;
    ctx.memo_ea.(slot) <- ctx.epoch.(ai);
    ctx.memo_eb.(slot) <- ctx.epoch.(bi);
    ctx.memo_cell.(slot) <- !best;
    ctx.memo_bal.(slot) <- bal;
    true
  end

(* Visit one tied direction: reuse or refresh its memo, then fold its
   local first-best into the round's best.  Returns [false] when its
   prefix was stashed. *)
let visit_direction ctx ~pads dir ~gain stash =
  let set = if pads then ctx.pads else ctx.cells in
  let slot = if pads then (ctx.nb * ctx.nb) + dir else dir in
  let fresh =
    ctx.memo_ver.(slot) = Dirset.version set dir
    && ctx.memo_ea.(slot) = ctx.epoch.(dir / ctx.nb)
    && ctx.memo_eb.(slot) = ctx.epoch.(dir mod ctx.nb)
  in
  let kept =
    if fresh then begin
      ctx.n_reused <- ctx.n_reused + 1;
      true
    end
    else scan_direction ctx ~pads set slot dir ~gain stash
  in
  let c = ctx.memo_cell.(slot) in
  if kept && c >= 0 then begin
    let mo = slot * ctx.levels and bal = ctx.memo_bal.(slot) in
    if
      ctx.sel_cell < 0
      || beats ctx ~la:ctx.memo_la ~lo:mo ~bal c ~la':ctx.sel_la ~lo':0
           ~bal':ctx.sel_bal ctx.sel_cell
    then begin
      ctx.sel_cell <- c;
      ctx.sel_to <- ctx.spec.active.(dir mod ctx.nb);
      ctx.sel_bal <- bal;
      Array.blit ctx.memo_la mo ctx.sel_la 0 ctx.levels
    end
  end;
  kept

(* Select the next move into [sel_cell]/[sel_to]; returns its primary
   gain, or [None] when no legal move is left. *)
let select ctx stash =
  ctx.sel_cell <- -1;
  let result = ref None in
  let again = ref true in
  while !again do
    again := false;
    ctx.n_rounds <- ctx.n_rounds + 1;
    let top set = match Dirset.best_gain set with Some g -> g | None -> min_int in
    let cg = top ctx.cells and pg = top ctx.pads in
    let gain = max cg pg in
    if gain > min_int then begin
      let nc = if cg = gain then Dirset.best_dirs ctx.cells ctx.cell_dirs else 0 in
      let np = if pg = gain then Dirset.best_dirs ctx.pads ctx.pad_dirs else 0 in
      let stashed = ref false in
      let i = ref 0 and j = ref 0 in
      while !i < nc || !j < np do
        let pads =
          !j < np && (!i >= nc || ctx.pad_dirs.(!j) < ctx.cell_dirs.(!i))
        in
        let dir =
          if pads then ctx.pad_dirs.(!j) else ctx.cell_dirs.(!i)
        in
        if pads then incr j else incr i;
        if not (visit_direction ctx ~pads dir ~gain stash) then stashed := true
      done;
      if ctx.sel_cell >= 0 then result := Some gain
      else if !stashed then again := true
    end
  done;
  !result

(* Offered to the solution stacks at improvement points of the first
   execution (section 3.6): semi-feasible solutions in one stack,
   infeasible ones in the other. *)
let offer_to_stacks ~k ~semi ~infeasible snap =
  let f = snap.Snapshot.value.Cost.feasible_blocks in
  if f >= k - 1 then ignore (Stack.offer semi snap)
  else ignore (Stack.offer infeasible snap)

(* Pass-start bucket build: every active node inserted with fresh gains
   in every direction, locks and lock counts cleared. *)
let fill_buckets ctx =
  let st = ctx.st in
  Array.fill ctx.locked 0 (Array.length ctx.locked) false;
  Array.fill ctx.locked_cnt 0 (Array.length ctx.locked_cnt) 0;
  Bytes.fill ctx.la_ok 0 (Bytes.length ctx.la_ok) '\000';
  Dirset.clear ctx.cells;
  Dirset.clear ctx.pads;
  Hg.iter_nodes
    (fun v -> if ctx.pos.(State.block_of st v) >= 0 then insert_cell ctx v)
    ctx.hg;
  refresh_all_directions ctx

(* Apply the move [v] -> [b]: pop [v] from its buckets, update the
   state (buffering the changed-nets summary when the delta engine is
   on), lock, bump both blocks' move epochs (which stales the selection
   memo of every direction touching them) and retire any directions the
   size change closed.
   Returns the source block. *)
let apply_move ctx v b =
  let st = ctx.st in
  let a = State.block_of st v in
  remove_cell ctx v;
  (match ctx.cfg.gain_update with
  | Recompute -> State.move st v b
  | Delta ->
    ctx.d_len <- 0;
    State.move st v b ~on_net:(fun e ~ca ~cb ~span ->
        let i = ctx.d_len in
        ctx.d_nets.(i) <- e;
        ctx.d_ca.(i) <- ca;
        ctx.d_cb.(i) <- cb;
        ctx.d_span.(i) <- span;
        ctx.d_len <- i + 1));
  ctx.locked.(v) <- true;
  let pa = ctx.pos.(a) and pb = ctx.pos.(b) in
  Array.iter
    (fun e ->
      let i = (e * ctx.nb) + pb in
      ctx.locked_cnt.(i) <- ctx.locked_cnt.(i) + 1)
    (Hg.nets_of ctx.hg v);
  ctx.epoch.(pa) <- ctx.epoch.(pa) + 1;
  ctx.epoch.(pb) <- ctx.epoch.(pb) + 1;
  refresh_directions_of ctx a b;
  a

(* Refresh the gains of the unlocked neighbours of [v] after its move
   [a] -> [b], through the configured maintenance path. *)
let refresh_neighbours ctx ~v ~a ~b =
  match ctx.cfg.gain_update with
  | Delta -> apply_deltas ctx ~v ~a ~b
  | Recompute ->
    let st = ctx.st in
    Array.iter
      (fun e ->
        Array.iter
          (fun u ->
            if
              u <> v
              && (not ctx.locked.(u))
              && ctx.pos.(State.block_of st u) >= 0
            then begin
              forget_lookahead ctx u;
              update_cell ctx u
            end)
          (Hg.pins ctx.hg e))
      (Hg.nets_of ctx.hg v)

(* One pass.  Returns [(best_value, retained_moves, applied_moves)];
   [ctx.st] ends at the best prefix.  When [collect] is set,
   improvement points are offered to the stacks. *)
let run_pass ctx ~collect ~semi ~infeasible =
  Obs.incr c_passes;
  ctx.tel_pass <- ctx.tel_pass + 1;
  let st = ctx.st in
  fill_buckets ctx;
  let k = State.k st in
  let telemetry = Obs.enabled () in
  let cut_before = if telemetry then State.cut_size st else 0 in
  let best_value = ref (ctx.eval st) in
  let value_before = !best_value in
  let best_prefix = ref 0 in
  let n_moves = ref 0 in
  let gain_sum = ref 0 in
  let rev_curve = ref [] in
  let trail = ref [] in
  let stash = ref [] in
  let continue = ref true in
  let drifted () =
    match ctx.cfg.drift_limit with
    | None -> false
    | Some limit -> !n_moves - !best_prefix > limit
  in
  while !continue do
    if drifted () then continue := false
    else begin
    stash := [];
    match select ctx stash with
    | None -> continue := false
    | Some cand_gain ->
      let v = ctx.sel_cell and b = ctx.sel_to in
      Obs.incr c_moves;
      Obs.observe h_move_gain (float_of_int cand_gain);
      if telemetry then begin
        gain_sum := !gain_sum + cand_gain;
        rev_curve := !gain_sum :: !rev_curve
      end;
      let a = apply_move ctx v b in
      trail := (v, a) :: !trail;
      incr n_moves;
      (* Reinsert stashed cells: sizes changed, they may be legal now.
         The chosen cell [v] can itself sit in the stash (stashed from
         one direction, selected from another): locked cells must never
         come back or they would be moved again.  Reinsertion happens
         before the neighbour update so every unlocked active cell is
         back in its buckets when the gains are adjusted. *)
      List.iter
        (fun (dir, c, g) ->
          if (not ctx.locked.(c)) && not (Dirset.mem ctx.cells ~dir c) then
            Dirset.insert ctx.cells ~dir c g)
        !stash;
      refresh_neighbours ctx ~v ~a ~b;
      (match ctx.cfg.on_move with None -> () | Some f -> f st);
      let value = ctx.eval st in
      if Cost.compare_value value !best_value < 0 then begin
        best_value := value;
        best_prefix := !n_moves;
        if collect then
          offer_to_stacks ~k ~semi ~infeasible (Snapshot.capture st ~value)
      end
    end
  done;
  (* rewind to the best prefix *)
  let rec rewind i = function
    | [] -> ()
    | (v, a) :: rest ->
      if i > !best_prefix then begin
        State.move st v a;
        rewind (i - 1) rest
      end
  in
  rewind !n_moves !trail;
  Obs.add c_rewound (!n_moves - !best_prefix);
  Obs.add c_select_rounds ctx.n_rounds;
  Obs.add c_dir_reused ctx.n_reused;
  Obs.add c_dir_rescanned ctx.n_rescanned;
  Obs.add c_lookahead_reused ctx.n_la_reused;
  ctx.n_rounds <- 0;
  ctx.n_reused <- 0;
  ctx.n_rescanned <- 0;
  ctx.n_la_reused <- 0;
  if telemetry then begin
    (* Gain-prefix curve, downsampled to ≤ 128 points (every
       [curve_stride]-th cumulative gain, last move always kept) so a
       long pass stays a small record. *)
    let curve = Array.of_list (List.rev !rev_curve) in
    let n = Array.length curve in
    let stride = max 1 ((n + 127) / 128) in
    let sampled = ref [] in
    for i = n - 1 downto 0 do
      if (i + 1) mod stride = 0 || i = n - 1 then
        sampled := Json.Int curve.(i) :: !sampled
    done;
    Recorder.event
      [
        ("type", Json.Str "pass");
        ("execution", Json.Int ctx.tel_execution);
        ("pass", Json.Int ctx.tel_pass);
        ("moves", Json.Int !n_moves);
        ("best_prefix", Json.Int !best_prefix);
        ("cut_before", Json.Int cut_before);
        ("cut_after", Json.Int (State.cut_size st));
        ("value_before", Cost.value_to_json value_before);
        ("value_after", Cost.value_to_json !best_value);
        ("curve_stride", Json.Int stride);
        ("gain_curve", Json.List !sampled);
      ]
  end;
  (!best_value, !best_prefix, !n_moves)

(* A series of passes from the current solution; stops when a pass fails
   to improve the value. *)
let run_execution ctx ~collect ~semi ~infeasible =
  ctx.tel_execution <- ctx.tel_execution + 1;
  ctx.tel_pass <- 0;
  let passes = ref 0 in
  let applied = ref 0 in
  let retained = ref 0 in
  let best = ref (ctx.eval ctx.st) in
  let continue = ref true in
  while !continue && !passes < ctx.cfg.max_passes do
    incr passes;
    let value, kept, moved = run_pass ctx ~collect ~semi ~infeasible in
    applied := !applied + moved;
    retained := !retained + kept;
    if kept = 0 || Cost.compare_value value !best >= 0 then continue := false;
    if Cost.compare_value value !best < 0 then best := value
  done;
  (!best, !passes, !applied, !retained)

let improve st ~spec ~config ~eval =
  Obs.incr c_improves;
  let ctx = make_ctx st spec config eval in
  let depth = max config.stack_depth 1 in
  let semi = Stack.create ~depth and infeasible = Stack.create ~depth in
  let collect = config.stack_depth > 0 in
  let value0, passes0, applied0, retained0 =
    run_execution ctx ~collect ~semi ~infeasible
  in
  let global_best = ref (Snapshot.capture st ~value:value0) in
  let passes = ref passes0 in
  let applied = ref applied0 in
  let retained = ref retained0 in
  let restarts = ref 0 in
  if collect then begin
    let try_restart snap =
      (* Skip restarts that coincide with the retained solution. *)
      if not (Snapshot.same_assignment snap !global_best) then begin
        incr restarts;
        Obs.incr c_restarts;
        Snapshot.restore snap st;
        let value, p, m, r =
          run_execution ctx ~collect:false ~semi ~infeasible
        in
        passes := !passes + p;
        applied := !applied + m;
        retained := !retained + r;
        if Cost.compare_value value !global_best.Snapshot.value < 0 then
          global_best := Snapshot.capture st ~value
      end
    in
    List.iter try_restart (Stack.contents semi);
    List.iter try_restart (Stack.contents infeasible)
  end;
  Snapshot.restore !global_best st;
  {
    best = !global_best.Snapshot.value;
    passes_run = !passes;
    moves_applied = !applied;
    moves_retained = !retained;
    restarts = !restarts;
  }

(* {2 Gain-maintenance benchmark driver}

   Applies a scripted, selection-free move sequence through the real
   per-move machinery — bucket pop, [State.move], locking, direction
   retirement and the configured neighbour-gain refresh — so the wall
   clock measures gain maintenance without the selection, lookahead,
   evaluation and rewind costs that an [improve] run shares between
   both [gain_update] modes.  Cells are visited in id order with a
   seed-rotated target; a pass ends when every movable cell is locked
   or illegal, and the buckets are rebuilt for the next pass.  The
   script depends only on (state, spec, seed), never on the gain
   values, so [Delta] and [Recompute] apply bit-identical sequences.
   Returns the applied move count and the seconds spent inside the
   neighbour refresh itself: the scripted walk, bucket rebuilds and
   [State.move] are identical setup work in both modes, so only the
   refresh belongs in the subsystem's clock. *)
let drive_gain_maintenance st ~spec ~config ~moves ~seed =
  let ctx = make_ctx st spec config (fun _ -> assert false) in
  let n = Hg.num_nodes ctx.hg in
  let nb = ctx.nb in
  let applied = ref 0 in
  let refresh_s = ref 0.0 in
  let progress = ref true in
  while !applied < moves && !progress do
    progress := false;
    fill_buckets ctx;
    let v = ref 0 in
    while !applied < moves && !v < n do
      let u = !v in
      let a = State.block_of st u in
      if (not ctx.locked.(u)) && ctx.pos.(a) >= 0 then begin
        let bi =
          (ctx.pos.(a) + 1 + ((seed + !applied) mod (nb - 1))) mod nb
        in
        let b = ctx.spec.active.(bi) in
        if b <> a && cell_legal ctx u b then begin
          let a = apply_move ctx u b in
          let t0 = Fpart_obs.Clock.now () in
          refresh_neighbours ctx ~v:u ~a ~b;
          refresh_s := !refresh_s +. (Fpart_obs.Clock.now () -. t0);
          incr applied;
          progress := true
        end
      end;
      incr v
    done
  done;
  (!applied, !refresh_s)
