/* CLOCK_MONOTONIC nanoseconds for the benchmark: durations must not
   include wall-clock steps. */

#include <time.h>
#include <stdint.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

int64_t perfbench_monotonic_ns_native(void)
{
  struct timespec ts;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0)
    return 0;
  return (int64_t)ts.tv_sec * 1000000000 + (int64_t)ts.tv_nsec;
}

value perfbench_monotonic_ns_bytecode(value unit)
{
  (void)unit;
  return caml_copy_int64(perfbench_monotonic_ns_native());
}
