external now_ns : unit -> int = "uindex_clock_now_ns" [@@noalloc]

let since_ns t0 = now_ns () - t0
