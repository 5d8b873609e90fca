(* Monotonic seconds.  Every duration the benchmark reports, and the
   recorder's span times, come from this clock, never from
   [Unix.gettimeofday], whose wall clock can step. *)

external monotonic_ns : unit -> (int64[@unboxed])
  = "perfbench_monotonic_ns_bytecode" "perfbench_monotonic_ns_native"
[@@noalloc]

let now () = Int64.to_float (monotonic_ns ()) *. 1e-9
let () = Fpart_obs.Clock.set_source now
