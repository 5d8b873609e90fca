(** The set of per-direction gain buckets of a multi-way pass, with
    top-direction tracking.

    The Sanchis engine maintains one {!Bucket_array} per ordered pair of
    active blocks ("move direction", paper section 3.7) and repeatedly
    asks for the direction(s) whose best cell has the globally highest
    gain.  Scanning all [k·(k-1)] direction tops every selection round
    is the naive answer; this module instead keeps an exact top index —
    directions bucketed by their current {!Bucket_array.top_gain}, the
    paper's "heap" specialised to the small integer gain range — so
    {!best_gain} is O(1) and {!best_dirs} touches only the tied
    directions.

    The index is maintained by routing every mutation through the set
    ({!insert}/{!remove}/{!update}/{!set_enabled}); {!bucket} exposes
    the underlying arrays for {e read-only} access ([fold_top],
    [top_gain], [cardinal]) — mutating one directly desynchronises the
    index.  Disabled directions (blocks on the feasible-move-region
    boundary, section 3.5) leave the index and are skipped by both
    queries.

    Directions are dense integers [0 .. n-1] chosen by the caller. *)

type t

(** [create ?discipline ~directions ~cells ~max_gain ()] allocates
    [directions] empty bucket arrays (shared insertion discipline). *)
val create :
  ?discipline:Bucket_array.discipline ->
  directions:int ->
  cells:int ->
  max_gain:int ->
  unit ->
  t

(** [bucket t dir] is the bucket array of a direction, for {e read-only}
    use; mutate through the set operations below so the top index stays
    exact. *)
val bucket : t -> int -> Bucket_array.t

(** [insert t ~dir cell gain] — {!Bucket_array.insert} plus index sync. *)
val insert : t -> dir:int -> int -> int -> unit

(** [remove t ~dir cell] — {!Bucket_array.remove} plus index sync. *)
val remove : t -> dir:int -> int -> unit

(** [update t ~dir cell gain] — {!Bucket_array.update} plus index sync. *)
val update : t -> dir:int -> int -> int -> unit

(** [mem t ~dir cell] is [Bucket_array.mem (bucket t dir) cell]. *)
val mem : t -> dir:int -> int -> bool

(** [gain_of t ~dir cell] is [Bucket_array.gain_of (bucket t dir) cell]. *)
val gain_of : t -> dir:int -> int -> int

(** [set_enabled t dir flag] enables or disables a direction; disabled
    directions are invisible to {!best_gain}/{!best_dirs}. *)
val set_enabled : t -> int -> bool -> unit

(** [enabled t dir] reads the flag (directions start enabled). *)
val enabled : t -> int -> bool

(** [best_gain t] is the highest top gain over enabled, non-empty
    directions — O(1) from the top index. *)
val best_gain : t -> int option

(** [best_dirs t buf] writes all enabled directions whose top gain
    equals {!best_gain} into [buf], ascending, and returns their number
    (0 when all buckets are empty or disabled).  Touches only the tied
    directions and allocates nothing; [buf] must hold every direction
    that can tie (the direction count is always enough). *)
val best_dirs : t -> int array -> int

(** [version t dir] changes whenever {!insert}, {!remove}, {!update}
    or {!clear} touches direction [dir] (also when the call turns out
    to be a no-op), so a caller may cache anything derived from the
    bucket's contents and trust it while the version is unchanged.
    {!set_enabled} leaves it alone: the contents do not change. *)
val version : t -> int -> int

(** [total_cells t] sums {!Bucket_array.cardinal} over all directions. *)
val total_cells : t -> int

(** [clear t] empties every bucket, re-enables every direction and
    resets the index. *)
val clear : t -> unit

(** [check t] verifies bucket integrity and that the top index matches
    every direction's actual top (test-only). *)
val check : t -> (unit, string) result
