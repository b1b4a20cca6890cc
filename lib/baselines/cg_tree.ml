module Bu = Storage.Bytes_util
module Pager = Storage.Pager
module Value = Objstore.Value

let no_page = 0xFFFFFFFF

(* --- data pages ----------------------------------------------------------

   header: u32 next | u16 nruns
   run:    u16 key_len | key | u32 count | count * u32 oids              *)

type run = { rkey : string; oids : int list }

type dpage = { next : int; runs : run list }

let run_size r = 2 + String.length r.rkey + 4 + (4 * List.length r.oids)

let dpage_size p =
  6 + List.fold_left (fun acc r -> acc + run_size r) 0 p.runs

let encode_dpage ~page_size p =
  let b = Bytes.make page_size '\000' in
  Bu.put_u32 b 0 (if p.next < 0 then no_page else p.next);
  Bu.put_u16 b 4 (List.length p.runs);
  let pos = ref 6 in
  List.iter
    (fun r ->
      Bu.put_u16 b !pos (String.length r.rkey);
      Bytes.blit_string r.rkey 0 b (!pos + 2) (String.length r.rkey);
      pos := !pos + 2 + String.length r.rkey;
      Bu.put_u32 b !pos (List.length r.oids);
      pos := !pos + 4;
      List.iter
        (fun o ->
          Bu.put_u32 b !pos o;
          pos := !pos + 4)
        r.oids)
    p.runs;
  b

let decode_dpage b =
  let next = Bu.get_u32 b 0 in
  let nruns = Bu.get_u16 b 4 in
  let pos = ref 6 in
  let runs =
    List.init nruns (fun _ ->
        let klen = Bu.get_u16 b !pos in
        let rkey = Bytes.sub_string b (!pos + 2) klen in
        pos := !pos + 2 + klen;
        let count = Bu.get_u32 b !pos in
        pos := !pos + 4;
        let oids =
          List.init count (fun i -> Bu.get_u32 b (!pos + (4 * i)))
        in
        pos := !pos + (4 * count);
        { rkey; oids })
  in
  { next = (if next = no_page then -1 else next); runs }

(* --- the index ------------------------------------------------------------ *)

type t = {
  dir : Btree.t;  (* encoded value -> directory blob: (set, data page) *)
  pager : Pager.t;
  (* per-set locator: data pages in chain order with their first keys.
     This stands in for the set links the original keeps in inner nodes;
     it is consulted to find a range query's start page (charged as the
     shared inner-tree descent) and by the write path. *)
  locators : (int, (string * int) list ref) Hashtbl.t;
}

let create ?config pager =
  { dir = Btree.create ?config pager; pager; locators = Hashtbl.create 16 }

let pager t = t.pager

let locator t s =
  match Hashtbl.find_opt t.locators s with
  | Some l -> l
  | None ->
      let l = ref [] in
      Hashtbl.add t.locators s l;
      l

let read_dpage_raw t id = decode_dpage (Pager.read t.pager id)
let write_dpage t id p =
  Pager.write t.pager id (encode_dpage ~page_size:(Pager.page_size t.pager) p)

(* --- directory records ----------------------------------------------------- *)

let dir_get t venc =
  match Btree.find t.dir venc with
  | Some blob -> Blob.decode_directory blob
  | None -> []

let dir_put t venc d =
  match d with
  | [] -> ignore (Btree.delete t.dir venc)
  | d -> Btree.insert t.dir ~key:venc ~value:(Blob.encode_directory d)

let dir_set_entry t venc s page =
  let d = dir_get t venc in
  let d = (s, [ page ]) :: List.remove_assoc s d in
  dir_put t venc (List.sort compare d)

let dir_drop_entry t venc s =
  dir_put t venc (List.remove_assoc s (dir_get t venc))

(* --- write path ------------------------------------------------------------ *)

let capacity t = Pager.page_size t.pager - 6

(* best splitting key: the run boundary closest to the byte midpoint that
   does not separate two runs of the same key (continuations) *)
let split_runs runs =
  let sizes = List.map run_size runs in
  let total = List.fold_left ( + ) 0 sizes in
  let arr = Array.of_list runs in
  let n = Array.length arr in
  let best = ref (-1)
  and best_cost = ref max_int
  and acc = ref 0 in
  List.iteri
    (fun i s ->
      if i < n - 1 then begin
        acc := !acc + s;
        let cost = abs ((2 * !acc) - total) in
        if cost < !best_cost && arr.(i).rkey <> arr.(i + 1).rkey then begin
          best_cost := cost;
          best := i + 1
        end
      end)
    sizes;
  if !best < 0 then None
  else
    Some
      ( Array.to_list (Array.sub arr 0 !best),
        Array.to_list (Array.sub arr !best (n - !best)) )

(* split an oversized single run into page-sized continuation chunks *)
let chop_run t r =
  let cap = capacity t in
  let max_oids = max 1 ((cap - 2 - String.length r.rkey - 4) / 4) in
  let rec go oids =
    if List.length oids <= max_oids then [ { r with oids } ]
    else
      let rec take n acc = function
        | x :: rest when n > 0 -> take (n - 1) (x :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let chunk, rest = take max_oids [] oids in
      { r with oids = chunk } :: go rest
  in
  go r.oids

let locator_insert l key page =
  let rec go = function
    | (k, p) :: rest when String.compare k key <= 0 -> (k, p) :: go rest
    | rest -> (key, page) :: rest
  in
  l := go !l

let locator_remove l page = l := List.filter (fun (_, p) -> p <> page) !l

let locator_refresh l page first_key =
  l := List.map (fun (k, p) -> if p = page then (first_key, p) else (k, p)) !l;
  l := List.sort (fun (a, _) (b, _) -> String.compare a b) !l

(* page containing the last first_key <= key (where a run for [key] would
   live), or the first page of the chain *)
let locator_find l key =
  let rec go best = function
    | (k, p) :: rest ->
        if String.compare k key <= 0 then go (Some p) rest else best
    | [] -> best
  in
  match go None !l with
  | Some p -> Some p
  | None -> ( match !l with (_, p) :: _ -> Some p | [] -> None)

(* store [runs] into page [id] (keeping its chain position), splitting into
   continuation pages as needed; updates directories for moved keys *)
let rec store_runs t s id (p : dpage) =
  if dpage_size p <= capacity t || List.length p.runs <= 1 then begin
    match p.runs with
    | [ r ] when dpage_size p > capacity t ->
        (* a single oversized run: chop into continuations *)
        let chunks = chop_run t r in
        let rec place id next = function
          | [ c ] -> write_dpage t id { next; runs = [ c ] }
          | c :: rest ->
              let q = Pager.alloc t.pager in
              locator_insert (locator t s) c.rkey q;
              write_dpage t id { next = q; runs = [ c ] };
              place q next rest
          | [] -> ()
        in
        (* directories keep pointing at [id], the first chunk *)
        place id p.next chunks
    | _ ->
        write_dpage t id p;
        (match p.runs with
        | r :: _ -> locator_refresh (locator t s) id r.rkey
        | [] -> ())
  end
  else
    match split_runs p.runs with
    | None ->
        (* all runs share one key; handled by the single-run path above
           after merging them *)
        let oids = List.concat_map (fun r -> r.oids) p.runs in
        let rkey = (List.hd p.runs).rkey in
        store_runs t s id { p with runs = [ { rkey; oids } ] }
    | Some (left, right) ->
        let q = Pager.alloc t.pager in
        (* redirect the directory entries of keys whose FIRST chunk moved
           to [q]; keys whose first chunk stayed on the left keep their
           pointer (continuations are found by following the chain) *)
        let left_keys = List.map (fun r -> r.rkey) left in
        let first_right = (List.hd right).rkey in
        List.iter
          (fun k -> if not (List.mem k left_keys) then dir_set_entry t k s q)
          (List.sort_uniq String.compare (List.map (fun r -> r.rkey) right));
        write_dpage t id { next = q; runs = left };
        locator_refresh (locator t s) id (List.hd left).rkey;
        locator_insert (locator t s) first_right q;
        store_runs t s q { next = p.next; runs = right }

let insert t ~value ~cls:s oid =
  let venc = Value.encode value in
  let d = dir_get t venc in
  match List.assoc_opt s d with
  | Some [ page ] ->
      (* append to the existing run (continuations: append to the last
         chunk by walking while pages still hold this key) *)
      let rec last_chunk id =
        let p = read_dpage_raw t id in
        match List.rev p.runs with
        | { rkey; _ } :: _ when rkey = venc && p.next >= 0 -> (
            let np = read_dpage_raw t p.next in
            match np.runs with
            | { rkey = k2; _ } :: _ when k2 = venc -> last_chunk p.next
            | _ -> id)
        | _ -> id
      in
      let id = last_chunk page in
      let p = read_dpage_raw t id in
      let runs =
        List.map
          (fun r -> if r.rkey = venc then { r with oids = r.oids @ [ oid ] } else r)
          p.runs
      in
      store_runs t s id { p with runs }
  | Some _ | None -> (
      (* no run for (venc, s) yet: put one into the set's chain *)
      match locator_find (locator t s) venc with
      | None ->
          let id = Pager.alloc t.pager in
          write_dpage t id { next = -1; runs = [ { rkey = venc; oids = [ oid ] } ] };
          locator_insert (locator t s) venc id;
          dir_set_entry t venc s id
      | Some id ->
          let p = read_dpage_raw t id in
          let rec place = function
            | r :: rest when String.compare r.rkey venc < 0 -> r :: place rest
            | rest -> { rkey = venc; oids = [ oid ] } :: rest
          in
          dir_set_entry t venc s id;
          store_runs t s id { p with runs = place p.runs })

(* unlink an emptied page from its set's chain and free it *)
let unlink_empty t s id =
  let l = locator t s in
  let rec pred_of prev = function
    | (_, p) :: rest -> if p = id then prev else pred_of (Some p) rest
    | [] -> prev
  in
  let pred = pred_of None !l in
  let next = (read_dpage_raw t id).next in
  (match pred with
  | Some pid ->
      let pp = read_dpage_raw t pid in
      write_dpage t pid { pp with next }
  | None -> ());
  locator_remove l id;
  Pager.free t.pager id

let remove t ~value ~cls:s oid =
  let venc = Value.encode value in
  match List.assoc_opt s (dir_get t venc) with
  | None | Some [] -> ()
  | Some (page :: _) ->
      (* gather the run's chunk pages (continuations follow directly) *)
      let rec chunk_pages id acc =
        if id < 0 then List.rev acc
        else
          let p = read_dpage_raw t id in
          if not (List.exists (fun r -> r.rkey = venc) p.runs) then
            List.rev acc
          else
            let last_is_venc =
              match List.rev p.runs with
              | r :: _ -> r.rkey = venc
              | [] -> false
            in
            if last_is_venc then chunk_pages p.next ((id, p) :: acc)
            else List.rev ((id, p) :: acc)
      in
      let chunks = chunk_pages page [] in
      let oids =
        List.concat_map
          (fun (_, p) ->
            List.concat_map
              (fun r -> if r.rkey = venc then r.oids else [])
              p.runs)
          chunks
      in
      if List.mem oid oids then begin
        let rec remove_one = function
          | o :: rest when o = oid -> rest
          | o :: rest -> o :: remove_one rest
          | [] -> []
        in
        let oids = remove_one oids in
        (* strip the run from every chunk page, then reinstate the merged
           remainder (if any) on the first chunk page *)
        let strip (id, (p : dpage)) keep_run =
          let runs = List.filter (fun r -> r.rkey <> venc) p.runs in
          let runs =
            match keep_run with
            | Some r ->
                let rec place = function
                  | x :: rest when String.compare x.rkey venc < 0 ->
                      x :: place rest
                  | rest -> r :: rest
                in
                place runs
            | None -> runs
          in
          (id, { p with runs })
        in
        match chunks with
        | [] -> ()
        | (fid, _) :: rest ->
            let keep =
              if oids = [] then None else Some { rkey = venc; oids }
            in
            (* process continuation chunks first, re-reading each page at
               use time (unlinking rewrites predecessors' next pointers) *)
            List.iter
              (fun (id, _) ->
                let _, p = strip (id, read_dpage_raw t id) None in
                if p.runs = [] then unlink_empty t s id
                else begin
                  write_dpage t id p;
                  locator_refresh (locator t s) id (List.hd p.runs).rkey
                end)
              rest;
            let _, fp = strip (fid, read_dpage_raw t fid) keep in
            if fp.runs = [] then begin
              unlink_empty t s fid;
              dir_drop_entry t venc s
            end
            else begin
              store_runs t s fid fp;
              if keep = None then dir_drop_entry t venc s
            end
      end

let build t entries =
  List.iter (fun (v, cls, oid) -> insert t ~value:v ~cls oid) entries

(* --- queries --------------------------------------------------------------- *)

let exact t ~value ~sets =
  let venc = Value.encode value in
  let cache = Pager.Cache.create t.pager in
  let read = Pager.Cache.read cache in
  match Btree.find t.dir ~read venc with
  | None -> []
  | Some blob ->
      let d = Blob.decode_directory blob in
      List.concat_map
        (fun s ->
          match List.assoc_opt s d with
          | None | Some [] -> []
          | Some (page :: _) ->
              let rec collect id acc =
                if id < 0 then acc
                else
                  let p = decode_dpage (read id) in
                  let here =
                    List.concat_map
                      (fun r -> if r.rkey = venc then r.oids else [])
                      p.runs
                  in
                  (* continue only while a continuation chunk may follow *)
                  let last_is_venc =
                    match List.rev p.runs with
                    | { rkey; _ } :: _ -> rkey = venc
                    | [] -> false
                  in
                  if here <> [] && last_is_venc then collect p.next (acc @ here)
                  else acc @ here
              in
              List.map (fun o -> (s, o)) (collect page []))
        sets

let range t ~lo ~hi ~sets =
  let lo_enc = Value.encode lo and hi_enc = Value.encode hi in
  let cache = Pager.Cache.create t.pager in
  let read = Pager.Cache.read cache in
  (* one shared inner-tree descent models the set-link lookup *)
  ignore (Btree.find t.dir ~read lo_enc);
  List.concat_map
    (fun s ->
      match locator_find (locator t s) lo_enc with
      | None -> []
      | Some start ->
          let rec walk id acc =
            if id < 0 then acc
            else
              let p = decode_dpage (read id) in
              let keep =
                List.filter
                  (fun r ->
                    String.compare r.rkey lo_enc >= 0
                    && String.compare r.rkey hi_enc <= 0)
                  p.runs
              in
              let acc =
                acc
                @ List.concat_map
                    (fun r -> List.map (fun o -> (s, o)) r.oids)
                    keep
              in
              let beyond =
                List.exists (fun r -> String.compare r.rkey hi_enc > 0) p.runs
              in
              if beyond then acc else walk p.next acc
          in
          walk start [])
    sets

(* --- introspection ---------------------------------------------------------- *)

let entry_count t =
  Hashtbl.fold
    (fun _ l acc ->
      List.fold_left
        (fun acc (_, page) ->
          let p = read_dpage_raw t page in
          acc + List.fold_left (fun a r -> a + List.length r.oids) 0 p.runs)
        acc
        (List.sort_uniq compare !l))
    t.locators 0

let check t =
  let fail fmt = Format.kasprintf failwith fmt in
  Btree.check t.dir;
  Hashtbl.iter
    (fun s l ->
      (* chains must be sorted and match the locator *)
      match !l with
      | [] -> ()
      | (_, first) :: _ ->
          let rec walk id prev_key seen =
            if id < 0 then List.rev seen
            else
              let p = read_dpage_raw t id in
              let prev =
                List.fold_left
                  (fun prev r ->
                    if String.compare prev r.rkey > 0 then
                      fail "set %d: chain out of order" s;
                    r.rkey)
                  prev_key p.runs
              in
              walk p.next prev (id :: seen)
          in
          let chain = walk first "" [] in
          let loc_pages = List.map snd !l |> List.sort_uniq compare in
          if List.sort_uniq compare chain <> loc_pages then
            fail "set %d: locator does not match chain" s)
    t.locators;
  (* every directory pointer must land on a page holding the run *)
  Btree.iter t.dir (fun e ->
      let d = Blob.decode_directory (e.value ()) in
      List.iter
        (fun (s, pages) ->
          match pages with
          | [ page ] ->
              let p = read_dpage_raw t page in
              if not (List.exists (fun r -> r.rkey = e.key) p.runs) then
                fail "directory for set %d points at a page without the run" s
          | _ -> fail "malformed directory entry")
        d)
