(* Words allocated by [f ()]: minor ([Gc.counters]' minor count lags
   behind on OCaml 5) plus those allocated straight into the major heap.
   Returns [f]'s result with the count. *)
let measure f =
  let w0 = Gc.minor_words () in
  let _, p0, j0 = Gc.counters () in
  let r = f () in
  let _, p1, j1 = Gc.counters () in
  let w1 = Gc.minor_words () in
  (r, int_of_float (w1 -. w0 +. (j1 -. j0) -. (p1 -. p0)))
