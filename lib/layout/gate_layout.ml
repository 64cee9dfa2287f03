module Coord = Hexlib.Coord
module D = Hexlib.Direction

type clock_assignment =
  | Scheme of Clocking.scheme
  | Expanded of Clocking.scheme * int

(* [cells] holds the [width] x [height] field row-major, top row first. *)
type t = {
  width : int;
  height : int;
  cells : Tile.t array;
  clocking : clock_assignment;
}

let create ~width ~height ~clocking =
  if width <= 0 || height <= 0 then
    invalid_arg
      (Printf.sprintf "Gate_layout.create: non-positive dimensions %dx%d"
         width height);
  { width; height; cells = Array.make (width * height) Tile.Empty; clocking }

let width t = t.width
let height t = t.height
let clocking t = t.clocking

let in_bounds t (c : Coord.offset) =
  c.col >= 0 && c.col < t.width && c.row >= 0 && c.row < t.height

let index t what (c : Coord.offset) =
  if in_bounds t c then (c.row * t.width) + c.col
  else
    invalid_arg
      (Format.asprintf "Gate_layout.%s: %a out of %dx%d bounds" what
         Coord.pp_offset c t.width t.height)

let get t c = t.cells.(index t "get" c)
let set t c v = t.cells.(index t "set" c) <- v

let zone t c =
  match t.clocking with
  | Scheme s -> Clocking.zone s c
  | Expanded (s, rows) -> Clocking.zone_expanded s ~rows_per_zone:rows c

let with_clocking t clocking = { t with cells = Array.copy t.cells; clocking }

let iter t f =
  Array.iteri
    (fun i tile ->
      f ({ col = i mod t.width; row = i / t.width } : Coord.offset) tile)
    t.cells

let fold t ~init ~f =
  let acc = ref init in
  iter t (fun c tile -> acc := f !acc c tile);
  !acc

let pis t =
  List.rev
    (fold t ~init:[] ~f:(fun acc c tile ->
         match tile with
         | Tile.Pi { name; _ } -> (c, name) :: acc
         | Tile.Empty | Tile.Po _ | Tile.Gate _ | Tile.Wire _
         | Tile.Fanout _ ->
             acc))

let pos t =
  List.rev
    (fold t ~init:[] ~f:(fun acc c tile ->
         match tile with
         | Tile.Po { name; _ } -> (c, name) :: acc
         | Tile.Empty | Tile.Pi _ | Tile.Gate _ | Tile.Wire _
         | Tile.Fanout _ ->
             acc))

let signal_source t c d =
  let n = D.neighbor_offset c d in
  let emitting = D.opposite d in
  if in_bounds t n && List.exists (D.equal emitting) (Tile.outputs (get t n))
  then Some (n, emitting)
  else None

type stats = {
  bounding_width : int;
  bounding_height : int;
  area_tiles : int;
  gate_tiles : int;
  wire_tiles : int;
  crossing_tiles : int;
  fanout_tiles : int;
  pi_tiles : int;
  po_tiles : int;
}

let bounding_box t =
  fold t ~init:None ~f:(fun acc (c : Coord.offset) tile ->
      if Tile.is_empty tile then acc
      else
        match acc with
        | None -> Some (c.col, c.row, c.col, c.row)
        | Some (x0, y0, x1, y1) ->
            Some (min x0 c.col, min y0 c.row, max x1 c.col, max y1 c.row))

let stats t =
  let x0, y0, x1, y1 =
    match bounding_box t with
    | Some b -> b
    | None -> (0, 0, -1, -1)
  in
  let bounding_width = x1 - x0 + 1 and bounding_height = y1 - y0 + 1 in
  let count f = fold t ~init:0 ~f:(fun acc _ tile -> if f tile then acc + 1 else acc) in
  {
    bounding_width = max 0 bounding_width;
    bounding_height = max 0 bounding_height;
    area_tiles = max 0 bounding_width * max 0 bounding_height;
    gate_tiles = count Tile.is_gate;
    wire_tiles = count (fun tile -> Tile.is_wire tile && not (Tile.is_crossing tile));
    crossing_tiles = count Tile.is_crossing;
    fanout_tiles =
      count (function
        | Tile.Fanout _ -> true
        | Tile.Empty | Tile.Pi _ | Tile.Po _ | Tile.Gate _ | Tile.Wire _ ->
            false);
    pi_tiles = count Tile.is_pi;
    po_tiles = count Tile.is_po;
  }

let copy t = { t with cells = Array.copy t.cells }

let crop t =
  match bounding_box t with
  | None -> create ~width:1 ~height:1 ~clocking:t.clocking
  | Some (x0, y0, x1, y1) ->
      (* Shifting rows changes hexagonal row parity; shift by even row
         offsets only so that neighbor relations are preserved. *)
      let y0 = y0 - (y0 land 1) in
      let fresh =
        create ~width:(x1 - x0 + 1) ~height:(y1 - y0 + 1) ~clocking:t.clocking
      in
      iter t (fun (c : Coord.offset) tile ->
          let c' : Coord.offset = { col = c.col - x0; row = c.row - y0 } in
          if in_bounds fresh c' then set fresh c' tile);
      fresh
