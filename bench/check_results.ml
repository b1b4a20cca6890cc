(* CI gate over BENCH_results.json: evaluates every gate of the table in
   gates.ml, prints one verdict line per gate, and exits 1 if any
   failed — so one log shows every violated gate.

   Usage: check_results <BENCH_results.json> <expected.json> *)

let fail fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("check_results: " ^ m);
      exit 1)
    fmt

let parse path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error m -> fail "%s" m
  | s -> (
      match Obs.Json.of_string s with
      | v -> v
      | exception Obs.Json.Parse_error m -> fail "%s: malformed JSON: %s" path m)

let () =
  if Array.length Sys.argv <> 3 then
    fail "usage: check_results <BENCH_results.json> <expected.json>";
  let results = parse Sys.argv.(1) and expected = parse Sys.argv.(2) in
  let verdicts =
    Gates.evaluate { results; expected; expected_path = Sys.argv.(2) }
  in
  List.iter
    (fun (g, v) ->
      match v with
      | None -> Printf.printf "PASS %s\n" (Gates.id g)
      | Some m -> Printf.printf "FAIL %s: %s\n" (Gates.id g) m)
    verdicts;
  let failed = List.length (List.filter (fun (_, v) -> v <> None) verdicts) in
  Printf.printf "check_results: %d of %d gates failed\n" failed
    (List.length verdicts);
  if failed > 0 then exit 1
