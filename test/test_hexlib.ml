(* Tests for the hexagonal-grid substrate. *)

module C = Hexlib.Coord
module D = Hexlib.Direction

let axial q r : C.axial = { q; r }
let offset col row : C.offset = { col; row }

let arbitrary_axial =
  QCheck.map
    (fun (q, r) -> axial q r)
    (QCheck.pair (QCheck.int_range (-50) 50) (QCheck.int_range (-50) 50))

(* --- coordinate conversions ------------------------------------------- *)

let test_cube_invariant () =
  let c = C.cube_of_axial (axial 3 (-5)) in
  Alcotest.(check int) "x + y + z = 0" 0 (c.C.x + c.C.y + c.C.z)

let test_cube_invalid () =
  Alcotest.check_raises "invalid cube" (Invalid_argument "Coord.cube: 1 + 1 + 1 <> 0")
    (fun () -> ignore (C.cube 1 1 1))

let test_offset_axial_examples () =
  (* Odd-r: odd rows shifted right. *)
  Alcotest.(check bool) "origin" true
    (C.equal_offset (C.offset_of_axial (axial 0 0)) (offset 0 0));
  Alcotest.(check bool) "row1" true
    (C.equal_offset (C.offset_of_axial (axial 0 1)) (offset 0 1));
  Alcotest.(check bool) "row2" true
    (C.equal_offset (C.offset_of_axial (axial (-1) 2)) (offset 0 2))

let prop_axial_offset_roundtrip =
  QCheck.Test.make ~name:"axial -> offset -> axial" ~count:500 arbitrary_axial
    (fun a -> C.equal_axial (C.axial_of_offset (C.offset_of_axial a)) a)

let prop_cube_roundtrip =
  QCheck.Test.make ~name:"axial -> cube -> axial" ~count:500 arbitrary_axial
    (fun a -> C.equal_axial (C.axial_of_cube (C.cube_of_axial a)) a)

(* --- distance metric ---------------------------------------------------- *)

let prop_distance_symmetric =
  QCheck.Test.make ~name:"distance symmetric" ~count:500
    (QCheck.pair arbitrary_axial arbitrary_axial)
    (fun (a, b) -> C.distance a b = C.distance b a)

let prop_distance_triangle =
  QCheck.Test.make ~name:"triangle inequality" ~count:500
    (QCheck.triple arbitrary_axial arbitrary_axial arbitrary_axial)
    (fun (a, b, c) -> C.distance a c <= C.distance a b + C.distance b c)

let prop_distance_neighbor =
  QCheck.Test.make ~name:"neighbors at distance 1" ~count:100 arbitrary_axial
    (fun a ->
      List.for_all
        (fun d -> C.distance a (D.neighbor a d) = 1)
        D.all)

let prop_distance_zero =
  QCheck.Test.make ~name:"distance zero iff equal" ~count:200
    (QCheck.pair arbitrary_axial arbitrary_axial)
    (fun (a, b) -> C.distance a b = 0 = C.equal_axial a b)

(* --- rotations and reflections ------------------------------------------ *)

let prop_rotate_six_times =
  QCheck.Test.make ~name:"six left rotations = identity" ~count:200
    arbitrary_axial (fun a ->
      let r = ref a in
      for _ = 1 to 6 do
        r := C.rotate_left !r
      done;
      C.equal_axial !r a)

let prop_rotate_inverse =
  QCheck.Test.make ~name:"rotate_left . rotate_right = id" ~count:200
    arbitrary_axial (fun a ->
      C.equal_axial (C.rotate_left (C.rotate_right a)) a)

let prop_rotate_preserves_distance =
  QCheck.Test.make ~name:"rotation preserves distance to origin" ~count:200
    arbitrary_axial (fun a ->
      C.distance (axial 0 0) a = C.distance (axial 0 0) (C.rotate_left a))

let prop_reflect_involution =
  QCheck.Test.make ~name:"reflection is an involution" ~count:200
    arbitrary_axial (fun a -> C.equal_axial (C.reflect_q (C.reflect_q a)) a)

(* --- lines, rings, spirals ---------------------------------------------- *)

let prop_line_length =
  QCheck.Test.make ~name:"line has distance+1 hexes" ~count:200
    (QCheck.pair arbitrary_axial arbitrary_axial)
    (fun (a, b) -> List.length (C.line a b) = C.distance a b + 1)

let prop_line_endpoints =
  QCheck.Test.make ~name:"line endpoints" ~count:200
    (QCheck.pair arbitrary_axial arbitrary_axial)
    (fun (a, b) ->
      let l = C.line a b in
      C.equal_axial (List.hd l) a
      && C.equal_axial (List.nth l (List.length l - 1)) b)

let prop_line_steps =
  QCheck.Test.make ~name:"consecutive line hexes adjacent" ~count:200
    (QCheck.pair arbitrary_axial arbitrary_axial)
    (fun (a, b) ->
      let l = C.line a b in
      let rec adjacent = function
        | x :: (y :: _ as rest) -> C.distance x y = 1 && adjacent rest
        | _ -> true
      in
      adjacent l)

let test_ring_sizes () =
  let center = axial 2 (-1) in
  Alcotest.(check int) "ring 0" 1 (List.length (C.ring ~center ~radius:0));
  Alcotest.(check int) "ring 1" 6 (List.length (C.ring ~center ~radius:1));
  Alcotest.(check int) "ring 3" 18 (List.length (C.ring ~center ~radius:3))

let test_ring_distance () =
  let center = axial 0 0 in
  List.iter
    (fun h ->
      Alcotest.(check int) "on ring" 4 (C.distance center h))
    (C.ring ~center ~radius:4)

let test_spiral_size () =
  Alcotest.(check int) "spiral 3" 37
    (List.length (C.spiral ~center:(axial 1 1) ~radius:3))

let test_spiral_unique () =
  let s = C.spiral ~center:(axial 0 0) ~radius:4 in
  let sorted = List.sort_uniq C.compare_axial s in
  Alcotest.(check int) "no duplicates" (List.length s) (List.length sorted)

(* --- directions ----------------------------------------------------------- *)

let test_opposites () =
  List.iter
    (fun d ->
      Alcotest.(check bool) "double opposite" true
        (D.equal d (D.opposite (D.opposite d))))
    D.all

let test_inputs_outputs () =
  Alcotest.(check bool) "NW is input" true (D.is_input D.North_west);
  Alcotest.(check bool) "SE is output" true (D.is_output D.South_east);
  Alcotest.(check bool) "E is neither" false
    (D.is_input D.East || D.is_output D.East)

let test_neighbor_offset_parity () =
  (* Even row: SW goes to col - 1; odd row: SW keeps col. *)
  Alcotest.(check bool) "even SW" true
    (C.equal_offset (D.neighbor_offset (offset 3 2) D.South_west) (offset 2 3));
  Alcotest.(check bool) "odd SW" true
    (C.equal_offset (D.neighbor_offset (offset 3 3) D.South_west) (offset 3 4));
  Alcotest.(check bool) "even SE" true
    (C.equal_offset (D.neighbor_offset (offset 3 2) D.South_east) (offset 3 3));
  Alcotest.(check bool) "odd SE" true
    (C.equal_offset (D.neighbor_offset (offset 3 3) D.South_east) (offset 4 4))

let prop_neighbor_offset_consistent =
  let arbitrary_offset =
    QCheck.map
      (fun (c, r) -> offset c r)
      (QCheck.pair (QCheck.int_range (-20) 20) (QCheck.int_range (-20) 20))
  in
  QCheck.Test.make ~name:"offset neighbor = axial neighbor" ~count:300
    (QCheck.pair arbitrary_offset (QCheck.oneofl D.all))
    (fun (o, d) ->
      C.equal_offset
        (D.neighbor_offset o d)
        (C.offset_of_axial (D.neighbor (C.axial_of_offset o) d)))

let prop_of_neighbors =
  let arbitrary_offset =
    QCheck.map
      (fun (c, r) -> offset c r)
      (QCheck.pair (QCheck.int_range (-20) 20) (QCheck.int_range (-20) 20))
  in
  QCheck.Test.make ~name:"of_neighbors identifies directions" ~count:300
    (QCheck.pair arbitrary_offset (QCheck.oneofl D.all))
    (fun (o, d) ->
      match D.of_neighbors o (D.neighbor_offset o d) with
      | Some d' -> D.equal d d'
      | None -> false)

let () =
  let qt = List.map (QCheck_alcotest.to_alcotest ~verbose:false) in
  Alcotest.run "hexlib"
    [
      ( "conversions",
        [
          Alcotest.test_case "cube invariant" `Quick test_cube_invariant;
          Alcotest.test_case "invalid cube" `Quick test_cube_invalid;
          Alcotest.test_case "offset examples" `Quick test_offset_axial_examples;
        ]
        @ qt [ prop_axial_offset_roundtrip; prop_cube_roundtrip ] );
      ( "metric",
        qt
          [
            prop_distance_symmetric;
            prop_distance_triangle;
            prop_distance_neighbor;
            prop_distance_zero;
          ] );
      ( "symmetry",
        qt
          [
            prop_rotate_six_times;
            prop_rotate_inverse;
            prop_rotate_preserves_distance;
            prop_reflect_involution;
          ] );
      ( "lines-rings",
        [
          Alcotest.test_case "ring sizes" `Quick test_ring_sizes;
          Alcotest.test_case "ring distance" `Quick test_ring_distance;
          Alcotest.test_case "spiral size" `Quick test_spiral_size;
          Alcotest.test_case "spiral unique" `Quick test_spiral_unique;
        ]
        @ qt [ prop_line_length; prop_line_endpoints; prop_line_steps ] );
      ( "directions",
        [
          Alcotest.test_case "opposites" `Quick test_opposites;
          Alcotest.test_case "inputs/outputs" `Quick test_inputs_outputs;
          Alcotest.test_case "offset parity" `Quick test_neighbor_offset_parity;
        ]
        @ qt [ prop_neighbor_offset_consistent; prop_of_neighbors ] );
    ]
