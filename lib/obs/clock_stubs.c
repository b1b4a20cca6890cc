/* Monotonic nanoseconds for Obs.Clock: one clock_gettime call, no
   allocation, no OCaml runtime interaction beyond tagging the result. */

#include <time.h>
#include <caml/mlvalues.h>

value uindex_clock_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec);
}
