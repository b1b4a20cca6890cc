(* One workload, five index structures: U-index, CH-tree, H-tree, CG-tree
   and NIX side by side on the same class-hierarchy data, with page-read
   accounting — a miniature of the paper's Section 5 comparison plus the
   Section 4.4 qualitative comparisons.

     dune exec examples/index_shootout.exe *)

module Dg = Workload.Datagen
module Ex = Workload.Experiment

let n_objects = 30_000
let n_classes = 20
let distinct_keys = 500
let reps = 25
let seed = 11

let () =
  let cfg =
    { (Dg.default_exp2 ~n_classes ~distinct_keys) with n_objects; seed }
  in
  Printf.printf
    "%d objects over %d classes, %d distinct keys; %d reps per cell\n\n"
    n_objects n_classes distinct_keys reps;
  print_string
    (Ex.shootout
       (Ex.structures (Dg.exp2 cfg))
       [ `U; `Ch; `H; `Cg; `Nix ]
       ~queries:[ ("exact match", Ex.Exact); ("range 5%", Ex.Range 0.05) ]
       ~set_counts:[ 1; 5; 10; 20 ] ~reps ~seed);
  print_endline "index_shootout: ok"
