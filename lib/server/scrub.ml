module Metrics = Obs.Metrics
module Db = Uindex.Db
module Verify = Uindex.Verify

let src = Logs.Src.create "uindex.scrub" ~doc:"online background verification"

module Log = (val Logs.src_log src : Logs.LOG)

let c_passes =
  Metrics.counter ~subsystem:"scrub" ~help:"completed scrub passes" "passes"

let c_pages =
  Metrics.counter ~subsystem:"scrub" ~help:"pages read by the scrub" "pages"

let c_issues =
  Metrics.counter ~subsystem:"scrub" ~help:"issues found by the scrub"
    "issues"

let g_last_issues =
  Metrics.gauge ~subsystem:"scrub" ~help:"issues found by the latest pass"
    "last_issues"

type config = { every : float; pause_every : int; pause : float }

let default_config = { every = 30.; pause_every = 64; pause = 0.001 }

type t = {
  cfg : config;
  db : Db.t;
  stopping : bool Atomic.t;
  done_passes : int Atomic.t;
  mutable dom : unit Domain.t option;
}

(* interruptible sleep: waits [dur] unless [stop] fires first; stdlib
   condvars have no timed wait, so poll in small slices *)
let sleep t dur =
  let deadline = Obs.Clock.now_ns () + int_of_float (dur *. 1e9) in
  let rec wait () =
    let left = float_of_int (deadline - Obs.Clock.now_ns ()) /. 1e9 in
    if left > 0. && not (Atomic.get t.stopping) then begin
      Unix.sleepf (min left 0.05);
      wait ()
    end
  in
  wait ()

let record_issue (i : Verify.issue) =
  Metrics.incr c_issues;
  Quarantine.record ~source:"scrub" ?page:i.page ~component:i.component
    ~detail:i.detail ()

let run_pass t =
  let issues_found = ref 0 in
  (let s = Db.open_session t.db in
   Fun.protect ~finally:(fun () -> Db.close_session s) @@ fun () ->
   match Db.session_indexes s with
   | exception Storage.Storage_error.Corruption { page; component; detail } ->
       (* attaching tripped a checksum (e.g. a damaged root path): that
          is a finding, not a scrub failure *)
       incr issues_found;
       Metrics.incr c_issues;
       Quarantine.record ~source:"scrub" ?page ~component ~detail ()
   | views ->
       let seen = ref 0 in
       let throttle _page =
         incr seen;
         Metrics.incr c_pages;
         if
           t.cfg.pause > 0.
           && !seen mod max 1 t.cfg.pause_every = 0
           && not (Atomic.get t.stopping)
         then Unix.sleepf t.cfg.pause
       in
       List.iter
         (fun view ->
           let report = Verify.check ~throttle view in
           if not report.Verify.ok then begin
             List.iter record_issue report.Verify.issues;
             issues_found := !issues_found + List.length report.Verify.issues
           end)
         views);
  Metrics.incr c_passes;
  Metrics.set g_last_issues !issues_found;
  Atomic.incr t.done_passes;
  if !issues_found > 0 then
    Log.warn (fun m -> m "scrub pass found %d issue(s)" !issues_found)
  else Log.debug (fun m -> m "scrub pass clean")

let rec loop t =
  sleep t t.cfg.every;
  if not (Atomic.get t.stopping) then begin
    (match run_pass t with
    | () -> ()
    | exception e ->
        (* the scrub must never take the server down with it *)
        Log.err (fun m -> m "scrub pass failed: %s" (Printexc.to_string e)));
    loop t
  end

let start ?(config = default_config) db =
  if config.every <= 0. then invalid_arg "Scrub.start: every <= 0";
  let t =
    {
      cfg = config;
      db;
      stopping = Atomic.make false;
      done_passes = Atomic.make 0;
      dom = None;
    }
  in
  t.dom <- Some (Domain.spawn (fun () -> loop t));
  Log.info (fun m -> m "scrubbing every %gs" config.every);
  t

let passes t = Atomic.get t.done_passes

let stop t =
  if not (Atomic.exchange t.stopping true) then begin
    Option.iter Domain.join t.dom;
    t.dom <- None
  end
