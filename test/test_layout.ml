(* Tests for clocking schemes, tiles, gate-level layouts, design rules,
   and super-tile formation. *)

module C = Hexlib.Coord
module D = Hexlib.Direction
module Cl = Layout.Clocking
module Tile = Layout.Tile
module GL = Layout.Gate_layout
module DR = Layout.Design_rules
module ST = Layout.Supertile
module M = Logic.Mapped

let offset col row : C.offset = { col; row }

(* --- clocking ---------------------------------------------------------- *)

let test_zone_assignments () =
  Alcotest.(check int) "row" 2 (Cl.zone Cl.Row (offset 5 6));
  Alcotest.(check int) "columnar" 1 (Cl.zone Cl.Columnar (offset 5 6));
  Alcotest.(check int) "2ddwave" 3 (Cl.zone Cl.Two_d_d_wave (offset 5 6));
  Alcotest.(check int) "use 0,0" 0 (Cl.zone Cl.Use (offset 0 0));
  Alcotest.(check int) "use 1,1" 2 (Cl.zone Cl.Use (offset 1 1))

let test_zone_negative_coords () =
  Alcotest.(check int) "negative row" 3 (Cl.zone Cl.Row (offset 0 (-1)))

let test_legal_flow () =
  Alcotest.(check bool) "0 -> 1" true (Cl.legal_flow ~from_zone:0 ~to_zone:1);
  Alcotest.(check bool) "3 -> 0" true (Cl.legal_flow ~from_zone:3 ~to_zone:0);
  Alcotest.(check bool) "1 -> 3" false (Cl.legal_flow ~from_zone:1 ~to_zone:3);
  Alcotest.(check bool) "2 -> 2" false (Cl.legal_flow ~from_zone:2 ~to_zone:2)

let test_expanded_zones () =
  (* Three rows per electrode. *)
  Alcotest.(check int) "rows 0-2 same zone" (Cl.zone_expanded Cl.Row ~rows_per_zone:3 (offset 0 0))
    (Cl.zone_expanded Cl.Row ~rows_per_zone:3 (offset 0 2));
  Alcotest.(check bool) "row 3 next zone" true
    (Cl.zone_expanded Cl.Row ~rows_per_zone:3 (offset 0 3)
    = (Cl.zone_expanded Cl.Row ~rows_per_zone:3 (offset 0 0) + 1) mod 4)

let test_feed_forward_flags () =
  Alcotest.(check bool) "row ff" true (Cl.is_feed_forward Cl.Row);
  Alcotest.(check bool) "use not ff" false (Cl.is_feed_forward Cl.Use)

(* --- tiles ---------------------------------------------------------------- *)

let xor_tile =
  Tile.Gate
    { fn = M.Xor2; ins = [ D.North_west; D.North_east ]; outs = [ D.South_east ] }

let test_tile_predicates () =
  Alcotest.(check bool) "empty" true (Tile.is_empty Tile.Empty);
  Alcotest.(check bool) "gate" true (Tile.is_gate xor_tile);
  let cross =
    Tile.Wire
      {
        segments =
          [ (D.North_west, D.South_east); (D.North_east, D.South_west) ];
      }
  in
  Alcotest.(check bool) "crossing" true (Tile.is_crossing cross);
  let double =
    Tile.Wire
      {
        segments =
          [ (D.North_west, D.South_west); (D.North_east, D.South_east) ];
      }
  in
  Alcotest.(check bool) "double is not crossing" false (Tile.is_crossing double)

let test_tile_well_formed () =
  Alcotest.(check bool) "xor ok" true (Tile.well_formed xor_tile = Ok ());
  let bad_arity =
    Tile.Gate { fn = M.And2; ins = [ D.North_west ]; outs = [ D.South_east ] }
  in
  Alcotest.(check bool) "arity" true (Result.is_error (Tile.well_formed bad_arity));
  let dup_border =
    Tile.Gate
      {
        fn = M.And2;
        ins = [ D.North_west; D.North_west ];
        outs = [ D.South_east ];
      }
  in
  Alcotest.(check bool) "duplicate border" true
    (Result.is_error (Tile.well_formed dup_border))

let test_tile_eval () =
  let values = [ (D.North_west, true); (D.North_east, false) ] in
  Alcotest.(check bool) "xor(1,0)" true
    (List.assoc D.South_east (Tile.eval xor_tile values));
  let ha =
    Tile.Gate
      {
        fn = M.Ha;
        ins = [ D.North_west; D.North_east ];
        outs = [ D.South_west; D.South_east ];
      }
  in
  let outs = Tile.eval ha [ (D.North_west, true); (D.North_east, true) ] in
  Alcotest.(check bool) "ha sum(1,1)=0" false (List.assoc D.South_west outs);
  Alcotest.(check bool) "ha carry(1,1)=1" true (List.assoc D.South_east outs)

(* --- a hand-built legal layout: f = a XOR b --------------------------------- *)

let xor_layout () =
  let l =
    GL.create ~width:2 ~height:3 ~clocking:(GL.Scheme Cl.Row)
  in
  (* Row 0: two input pads; row 1 is odd (shifted right).  PI a at (0,0)
     emits SE -> (0,1); PI b at (1,0) emits SW -> (1,1)?  On hexagonal
     odd-r, SE of (1,0) is (1,1) and SW of (1,0) is (0,1): use SW so both
     meet at... they must meet at one tile: target the XOR at (0,1):
     (0,0) SE -> (0,1); (1,0) SW -> (0,1). *)
  GL.set l (offset 0 0) (Tile.Pi { name = "a"; out = D.South_east });
  GL.set l (offset 1 0) (Tile.Pi { name = "b"; out = D.South_west });
  GL.set l (offset 0 1)
    (Tile.Gate
       {
         fn = M.Xor2;
         ins = [ D.North_west; D.North_east ];
         outs = [ D.South_west ];
       });
  (* SW of (0,1) (odd row) is (0,2). *)
  GL.set l (offset 0 2) (Tile.Po { name = "f"; inp = D.North_east });
  l

let test_layout_stats () =
  let l = xor_layout () in
  let s = GL.stats l in
  Alcotest.(check int) "width" 2 s.GL.bounding_width;
  Alcotest.(check int) "height" 3 s.GL.bounding_height;
  Alcotest.(check int) "gates" 1 s.GL.gate_tiles;
  Alcotest.(check int) "pis" 2 s.GL.pi_tiles;
  Alcotest.(check int) "pos" 1 s.GL.po_tiles

let test_layout_clean () =
  let l = xor_layout () in
  let violations = DR.check l in
  List.iter (fun v -> Format.printf "%a@." DR.pp_violation v) violations;
  Alcotest.(check int) "drc clean" 0 (List.length violations)

let test_signal_source () =
  let l = xor_layout () in
  (match GL.signal_source l (offset 0 1) D.North_west with
  | Some (c, d) ->
      Alcotest.(check bool) "source tile" true (C.equal_offset c (offset 0 0));
      Alcotest.(check bool) "emitting dir" true (D.equal d D.South_east)
  | None -> Alcotest.fail "expected source");
  Alcotest.(check bool) "no source on unused border" true
    (GL.signal_source l (offset 0 1) D.East = None)

let test_layout_storage () =
  (* Bounds, copy independence, row-major iteration and cropping of the
     tile field. *)
  let l = GL.create ~width:3 ~height:2 ~clocking:(GL.Scheme Cl.Row) in
  let wire = Tile.Wire { segments = [ (D.North_west, D.South_east) ] } in
  GL.set l (offset 2 1) wire;
  Alcotest.(check bool) "out of bounds" false (GL.in_bounds l (offset 3 0));
  Alcotest.check_raises "oob get"
    (Invalid_argument "Gate_layout.get: (3, 0) out of 3x2 bounds") (fun () ->
      ignore (GL.get l (offset 3 0)));
  Alcotest.(check bool) "border clips signal sources" true
    (GL.signal_source l (offset 0 0) D.North_west = None);
  let copy = GL.copy l in
  GL.set copy (offset 2 1) Tile.Empty;
  Alcotest.(check bool) "copy independent" true (GL.get l (offset 2 1) = wire);
  let visited =
    GL.fold l ~init:[] ~f:(fun acc c _ -> (c.C.col, c.C.row) :: acc)
  in
  Alcotest.(check (list (pair int int))) "row-major"
    [ (0, 0); (1, 0); (2, 0); (0, 1); (1, 1); (2, 1) ]
    (List.rev visited);
  let cropped = GL.crop l in
  Alcotest.(check (pair int int)) "cropped size" (1, 2)
    (GL.width cropped, GL.height cropped);
  Alcotest.(check bool) "cropped tile" true
    (GL.get cropped (offset 0 1) = wire)

let test_drc_dangling () =
  let l = xor_layout () in
  (* Remove the PO: the XOR's output dangles, and DRC must complain. *)
  GL.set l (offset 0 2) Tile.Empty;
  let violations = DR.check l in
  Alcotest.(check bool) "dangling detected" true
    (List.exists (fun v -> v.DR.rule = "connectivity") violations)

let test_drc_clocking () =
  (* Lateral flow within one row is a clocking violation under Row. *)
  let l = GL.create ~width:2 ~height:4 ~clocking:(GL.Scheme Cl.Row) in
  GL.set l (offset 0 0) (Tile.Pi { name = "a"; out = D.South_east });
  GL.set l (offset 0 1)
    (Tile.Wire { segments = [ (D.North_west, D.East) ] });
  GL.set l (offset 1 1)
    (Tile.Wire { segments = [ (D.West, D.South_east) ] });
  GL.set l (offset 2 2 |> fun _ -> offset 1 2) (Tile.Po { name = "f"; inp = D.North_west });
  let violations = DR.check l in
  Alcotest.(check bool) "clocking violation" true
    (List.exists (fun v -> v.DR.rule = "clocking" || v.DR.rule = "orientation") violations)

let test_drc_border_io () =
  let l = GL.create ~width:2 ~height:4 ~clocking:(GL.Scheme Cl.Row) in
  GL.set l (offset 0 1) (Tile.Pi { name = "a"; out = D.South_east });
  GL.set l (offset 0 2) (Tile.Po { name = "f"; inp = D.North_west });
  let violations = DR.check l in
  Alcotest.(check bool) "pi not on border" true
    (List.exists (fun v -> v.DR.rule = "border-io") violations);
  let relaxed = DR.check ~require_border_io:false l in
  Alcotest.(check bool) "relaxed has no border-io" true
    (not (List.exists (fun v -> v.DR.rule = "border-io") relaxed))

(* --- whole-layout audit ----------------------------------------------------- *)

let test_audit_clean () =
  Alcotest.(check int) "audit clean" 0 (List.length (DR.audit (xor_layout ())))

let test_audit_missing_io () =
  let l = GL.create ~width:2 ~height:2 ~clocking:(GL.Scheme Cl.Row) in
  let violations = DR.audit l in
  Alcotest.(check bool) "missing input pad reported" true
    (List.exists
       (fun v -> v.DR.rule = "audit" && v.DR.message = "layout has no input pads")
       violations);
  Alcotest.(check bool) "missing output pad reported" true
    (List.exists
       (fun v ->
         v.DR.rule = "audit" && v.DR.message = "layout has no output pads")
       violations)

let test_audit_duplicate_pad_names () =
  let l = xor_layout () in
  (* Rename PI b to a: two input pads now share a name. *)
  GL.set l (offset 1 0) (Tile.Pi { name = "a"; out = D.South_west });
  Alcotest.(check bool) "duplicate name reported" true
    (List.exists
       (fun v -> v.DR.rule = "audit" && v.DR.message = "duplicate input pad \"a\"")
       (DR.audit l))

let test_audit_unreachable_tile () =
  (* An isolated wire is flagged as unreachable from the input pads. *)
  let l = xor_layout () in
  GL.set l (offset 1 1)
    (Tile.Wire { segments = [ (D.North_west, D.South_east) ] });
  Alcotest.(check bool) "unreachable from inputs" true
    (List.exists
       (fun v ->
         v.DR.rule = "audit"
         && v.DR.message = "tile is not reachable from any input pad")
       (DR.audit l))

let test_audit_dead_end_branch () =
  (* A branch fed by an input pad whose signal never reaches an output
     pad: straight a->f wire path, plus pad b driving a wire that dead
     ends. *)
  let l = GL.create ~width:2 ~height:3 ~clocking:(GL.Scheme Cl.Row) in
  GL.set l (offset 0 0) (Tile.Pi { name = "a"; out = D.South_east });
  GL.set l (offset 0 1)
    (Tile.Wire { segments = [ (D.North_west, D.South_west) ] });
  GL.set l (offset 0 2) (Tile.Po { name = "f"; inp = D.North_east });
  GL.set l (offset 1 0) (Tile.Pi { name = "b"; out = D.South_east });
  GL.set l (offset 1 1)
    (Tile.Wire { segments = [ (D.North_west, D.South_east) ] });
  let violations = DR.audit l in
  Alcotest.(check bool) "dead end flagged" true
    (List.exists
       (fun v ->
         v.DR.rule = "audit"
         && v.DR.message = "tile does not reach any output pad"
         && C.equal_offset v.DR.at (offset 1 1))
       violations)

let test_audit_superset_of_check () =
  (* Every plain-check violation appears in the audit too. *)
  let l = xor_layout () in
  GL.set l (offset 0 2) Tile.Empty;
  let check_rules = List.map (fun v -> (v.DR.at, v.DR.rule)) (DR.check l) in
  let audit_rules = List.map (fun v -> (v.DR.at, v.DR.rule)) (DR.audit l) in
  Alcotest.(check bool) "audit superset" true
    (List.for_all (fun r -> List.mem r audit_rules) check_rules)

(* --- super-tiles ---------------------------------------------------------------- *)

let test_supertile_rows () =
  (* 40 nm metal pitch over 17.664 nm tiles: 3 rows per electrode. *)
  Alcotest.(check int) "rows per zone" 3 (ST.rows_per_zone ());
  Alcotest.(check int) "finer pitch" 2
    (ST.rows_per_zone ~metal_pitch_nm:25. ());
  Alcotest.(check int) "exact fit" 1
    (ST.rows_per_zone ~metal_pitch_nm:17. ())

let test_supertile_expand () =
  let l = xor_layout () in
  let expanded = ST.expand l in
  (match GL.clocking expanded with
  | GL.Expanded (Cl.Row, 3) -> ()
  | _ -> Alcotest.fail "expected Expanded (Row, 3)");
  (* All three rows now share electrode 0. *)
  Alcotest.(check int) "zone 0" 0 (GL.zone expanded (offset 0 0));
  Alcotest.(check int) "zone still 0" 0 (GL.zone expanded (offset 0 2));
  (* The expanded layout remains DRC-clean: intra-super-tile flow is
     allowed. *)
  Alcotest.(check int) "drc clean" 0 (List.length (DR.check expanded))

let test_electrode_count () =
  let l = xor_layout () in
  Alcotest.(check int) "per-row electrodes" 3 (ST.electrode_count l);
  Alcotest.(check int) "expanded electrodes" 1
    (ST.electrode_count (ST.expand l))

let test_supertile_use_rejected () =
  let l = GL.create ~width:2 ~height:2 ~clocking:(GL.Scheme Cl.Use) in
  Alcotest.(check bool) "use rejected" true
    (try
       ignore (ST.expand l);
       false
     with Invalid_argument _ -> true)

(* --- rendering --------------------------------------------------------------------- *)

let test_render () =
  let text = Layout.Render.layout (xor_layout ()) in
  Alcotest.(check bool) "mentions XOR" true
    (let contains s sub =
       let n = String.length s and m = String.length sub in
       let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
       go 0
     in
     contains text "XOR" && contains text "PI:a" && contains text "PO:f")

let () =
  Alcotest.run "layout"
    [
      ( "clocking",
        [
          Alcotest.test_case "zones" `Quick test_zone_assignments;
          Alcotest.test_case "negative" `Quick test_zone_negative_coords;
          Alcotest.test_case "legal flow" `Quick test_legal_flow;
          Alcotest.test_case "expanded" `Quick test_expanded_zones;
          Alcotest.test_case "feed-forward" `Quick test_feed_forward_flags;
        ] );
      ( "tiles",
        [
          Alcotest.test_case "predicates" `Quick test_tile_predicates;
          Alcotest.test_case "well-formed" `Quick test_tile_well_formed;
          Alcotest.test_case "eval" `Quick test_tile_eval;
        ] );
      ( "layouts",
        [
          Alcotest.test_case "stats" `Quick test_layout_stats;
          Alcotest.test_case "clean layout" `Quick test_layout_clean;
          Alcotest.test_case "signal source" `Quick test_signal_source;
          Alcotest.test_case "storage" `Quick test_layout_storage;
          Alcotest.test_case "dangling" `Quick test_drc_dangling;
          Alcotest.test_case "clocking violation" `Quick test_drc_clocking;
          Alcotest.test_case "border io" `Quick test_drc_border_io;
        ] );
      ( "audit",
        [
          Alcotest.test_case "clean" `Quick test_audit_clean;
          Alcotest.test_case "missing io" `Quick test_audit_missing_io;
          Alcotest.test_case "duplicate pad names" `Quick
            test_audit_duplicate_pad_names;
          Alcotest.test_case "unreachable tile" `Quick
            test_audit_unreachable_tile;
          Alcotest.test_case "dead-end branch" `Quick
            test_audit_dead_end_branch;
          Alcotest.test_case "superset of check" `Quick
            test_audit_superset_of_check;
        ] );
      ( "supertiles",
        [
          Alcotest.test_case "rows per zone" `Quick test_supertile_rows;
          Alcotest.test_case "expand" `Quick test_supertile_expand;
          Alcotest.test_case "electrodes" `Quick test_electrode_count;
          Alcotest.test_case "use rejected" `Quick test_supertile_use_rejected;
        ] );
      ("render", [ Alcotest.test_case "ascii" `Quick test_render ]);
    ]
