type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

let golden = 0x9E3779B97F4A7C15L

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = { state = next t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  Int64.to_int (Int64.rem (Int64.logand (next t) Int64.max_int) (Int64.of_int bound))

let bool t = Int64.logand (next t) 1L = 1L

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))

let sample_distinct t k bound =
  if k > bound then invalid_arg "Rng.sample_distinct: k > bound";
  if 3 * k >= bound then begin
    (* dense case: partial Fisher-Yates over the whole domain *)
    let a = Array.init bound Fun.id in
    for i = 0 to k - 1 do
      let j = i + int t (bound - i) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.sub a 0 k |> Array.to_list |> List.sort compare
  end
  else begin
    let seen = Hashtbl.create k in
    let rec draw n acc =
      if n = 0 then List.sort compare acc
      else
        let x = int t bound in
        if Hashtbl.mem seen x then draw n acc
        else begin
          Hashtbl.add seen x ();
          draw (n - 1) (x :: acc)
        end
    in
    draw k []
  end
