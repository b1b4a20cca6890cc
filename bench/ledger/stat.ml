(* Clock and sample statistics shared by the load generator, the traced
   replay and the comparison tool. *)

(* Monotonic nanoseconds: every duration the ledger reports is read here. *)
let now () = Int64.to_int (Monotonic_clock.now ())

(* A growable int buffer, so recording a latency sample never allocates
   on the request path. *)
type buf = { mutable a : int array; mutable n : int }

let buf () = { a = Array.make 4096 0; n = 0 }

let push b x =
  if b.n = Array.length b.a then begin
    let a = Array.make (2 * b.n) 0 in
    Array.blit b.a 0 a 0 b.n;
    b.a <- a
  end;
  b.a.(b.n) <- x;
  b.n <- b.n + 1

let sorted b =
  let a = Array.sub b.a 0 b.n in
  Array.sort compare a;
  a

(* Nearest-rank percentile of a sorted, non-empty sample. *)
let percentile sorted p =
  let n = Array.length sorted in
  let k = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (k - 1)))

(* Python's [statistics.quantiles xs ~n:4] (the default "exclusive"
   method), so the spreads printed here are the ones the acceptance
   check computes.  A single value is its own quartiles. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort compare d;
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Stat.quartiles: no values"
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m
