type t = {
  title : string;
  columns : string list;
  mutable rev_rows : string list list;
}

let create ~title ~columns = { title; columns; rev_rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: row width mismatch";
  t.rev_rows <- row :: t.rev_rows

let pp fmt t =
  let rows = List.rev t.rev_rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> Stdlib.max w (String.length cell)) acc row)
      (List.map String.length t.columns)
      rows
  in
  let pad w s = s ^ String.make (w - String.length s) ' ' in
  let render_row row =
    String.concat "  " (List.map2 pad widths row) |> String.trim
  in
  Format.fprintf fmt "=== %s ===@." t.title;
  Format.fprintf fmt "%s@." (render_row t.columns);
  let rule = List.map (fun w -> String.make w '-') widths in
  Format.fprintf fmt "%s@." (render_row rule);
  List.iter (fun row -> Format.fprintf fmt "%s@." (render_row row)) rows
