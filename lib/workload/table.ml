let fmt_f x = Printf.sprintf "%.1f" x

let section title =
  Printf.sprintf "\n%s\n%s\n" title (String.make (String.length title) '=')

let subsection title = Printf.sprintf "\n-- %s --\n" title

let render ~header ~rows =
  let all = header :: rows in
  let ncols = List.fold_left (fun m r -> max m (List.length r)) 0 all in
  let width i =
    List.fold_left
      (fun m r -> max m (match List.nth_opt r i with Some c -> String.length c | None -> 0))
      0 all
  in
  let widths = List.init ncols width in
  let buf = Buffer.create 256 in
  let put_row r =
    List.iteri
      (fun i w ->
        let cell = match List.nth_opt r i with Some c -> c | None -> "" in
        Buffer.add_string buf cell;
        if i < ncols - 1 then
          Buffer.add_string buf (String.make (w - String.length cell + 2) ' '))
      widths;
    Buffer.add_char buf '\n'
  in
  put_row header;
  Buffer.add_string buf
    (String.make (List.fold_left ( + ) 0 widths + (2 * (ncols - 1))) '-');
  Buffer.add_char buf '\n';
  List.iter put_row rows;
  Buffer.contents buf

let render_series ~title ~x_label ~series =
  let xs =
    List.concat_map (fun (_, pts) -> List.map fst pts) series
    |> List.sort_uniq compare
  in
  let header = x_label :: List.map fst series in
  let rows =
    List.map
      (fun x ->
        string_of_int x
        :: List.map
             (fun (_, pts) ->
               match List.assoc_opt x pts with
               | Some y -> fmt_f y
               | None -> "-")
             series)
      xs
  in
  Printf.sprintf "%s\n%s" title (render ~header ~rows)
