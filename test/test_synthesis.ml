(* Tests for cut enumeration, exact synthesis, the NPN database, and
   cut rewriting. *)

module T = Logic.Truth_table
module N = Logic.Network
module Cuts = Logic.Cuts
module E = Logic.Exact_synth
module Db = Logic.Npn_db
module R = Logic.Rewrite

let tt = Alcotest.testable (fun ppf t -> Format.pp_print_string ppf (T.to_string t)) T.equal

(* --- cut enumeration -------------------------------------------------- *)

let simple_network () =
  let n = N.create () in
  let a = N.pi n "a" and b = N.pi n "b" and c = N.pi n "c" in
  let g1 = N.and_ n a b in
  let g2 = N.xor_ n g1 c in
  N.po n "y" g2;
  (n, a, b, c, g1, g2)

let test_trivial_cuts () =
  let n, a, _, _, _, _ = simple_network () in
  let cuts = Cuts.enumerate n in
  let pi_cuts = Cuts.cuts_of cuts (N.node_of_signal a) in
  Alcotest.(check int) "pi has one cut" 1 (List.length pi_cuts);
  Alcotest.(check tt) "identity function" (T.var 1 0)
    (List.hd pi_cuts).Cuts.table

let test_cut_functions () =
  let n, a, b, c, _, g2 = simple_network () in
  let cuts = Cuts.enumerate n in
  let g2_cuts = Cuts.cuts_of cuts (N.node_of_signal g2) in
  (* One of the cuts must be {a, b, c} with function (a & b) ^ c. *)
  let leaves =
    List.sort compare
      (List.map N.node_of_signal [ a; b; c ])
  in
  let full_cut =
    List.find_opt
      (fun cut -> Array.to_list cut.Cuts.leaves = leaves)
      g2_cuts
  in
  match full_cut with
  | None -> Alcotest.fail "expected cut {a,b,c}"
  | Some cut ->
      let expected =
        T.lxor_ (T.land_ (T.var 3 0) (T.var 3 1)) (T.var 3 2)
      in
      Alcotest.(check tt) "cut function" expected cut.Cuts.table

let test_cut_limit () =
  let b = Logic.Benchmarks.find "majority_5_r1" in
  let n = b.Logic.Benchmarks.build () in
  let cuts = Cuts.enumerate ~k:4 ~max_cuts:8 n in
  List.iter
    (fun id ->
      let c = Cuts.cuts_of cuts id in
      Alcotest.(check bool) "cut count bounded" true (List.length c <= 8);
      List.iter
        (fun cut ->
          Alcotest.(check bool) "cut size bounded" true
            (Array.length cut.Cuts.leaves <= 4))
        c)
    (N.gates n)

let test_mffc () =
  let n, _, _, _, g1, g2 = simple_network () in
  let fanouts = N.fanout_counts n in
  Alcotest.(check int) "mffc of root" 2
    (Cuts.mffc_size n fanouts (N.node_of_signal g2));
  Alcotest.(check int) "mffc of inner" 1
    (Cuts.mffc_size n fanouts (N.node_of_signal g1))

let test_priority_matches_exhaustive () =
  (* The priority-cut path must reproduce the exhaustive baseline's cut
     lists exactly — same cuts, same order — on every Table-1 benchmark;
     interning must make equal tables physically equal across runs. *)
  List.iter
    (fun b ->
      let n = b.Logic.Benchmarks.build () in
      let pr = Cuts.enumerate ~config:Cuts.default_config n in
      let ex = Cuts.enumerate ~config:Cuts.exhaustive_config n in
      for id = 0 to N.num_nodes n - 1 do
        let cp = Cuts.cuts_of pr id and ce = Cuts.cuts_of ex id in
        if
          List.length cp <> List.length ce
          || not
               (List.for_all2
                  (fun c1 c2 ->
                    c1.Cuts.leaves = c2.Cuts.leaves
                    && c1.Cuts.table == c2.Cuts.table)
                  cp ce)
        then
          Alcotest.failf "%s node %d: priority/exhaustive cut lists differ"
            b.Logic.Benchmarks.name id
      done)
    Logic.Benchmarks.all

(* --- exact synthesis ------------------------------------------------------ *)

let synth_ok hex n expected_size =
  let g = T.of_hex n hex in
  match E.synthesize g with
  | None -> Alcotest.fail (Printf.sprintf "no chain for %s" hex)
  | Some chain ->
      Alcotest.(check tt) (hex ^ " function") g (E.chain_table chain);
      Alcotest.(check bool)
        (Printf.sprintf "%s size %d <= %d" hex (E.chain_size chain)
           expected_size)
        true
        (E.chain_size chain <= expected_size)

let test_exact_basic () =
  synth_ok "8" 2 1;
  (* and *)
  synth_ok "6" 2 1;
  (* xor *)
  synth_ok "e" 2 1;
  (* or *)
  synth_ok "96" 3 2;
  (* parity3 *)
  synth_ok "e8" 3 4;
  (* maj3 *)
  synth_ok "6996" 4 3 (* parity4 *)

let test_exact_constants () =
  match E.synthesize (T.const0 3) with
  | Some chain ->
      Alcotest.(check int) "const size 0" 0 (E.chain_size chain);
      Alcotest.(check tt) "const value" (T.const0 3) (E.chain_table chain)
  | None -> Alcotest.fail "constant must synthesize"

let test_exact_projection () =
  match E.synthesize (T.lnot (T.var 3 1)) with
  | Some chain ->
      Alcotest.(check int) "projection size 0" 0 (E.chain_size chain);
      Alcotest.(check tt) "projection value" (T.lnot (T.var 3 1))
        (E.chain_table chain)
  | None -> Alcotest.fail "projection must synthesize"

let test_exact_instantiate () =
  let g = T.of_hex 3 "e8" in
  match E.synthesize g with
  | None -> Alcotest.fail "maj3"
  | Some chain ->
      let ntk = N.create () in
      let leaves = Array.init 3 (fun i -> N.pi ntk (Printf.sprintf "x%d" i)) in
      N.po ntk "y" (E.instantiate chain ntk leaves);
      Alcotest.(check tt) "instantiated maj3" g (N.simulate ntk).(0)

let prop_exact_random_3 =
  QCheck.Test.make ~name:"exact synthesis of random 3-var functions"
    ~count:30
    (QCheck.map (fun v -> T.of_bits 3 (Int64.of_int (v land 0xff))) QCheck.int)
    (fun g ->
      match E.synthesize g with
      | None -> false
      | Some chain -> T.equal (E.chain_table chain) g)

(* --- NPN database ----------------------------------------------------------- *)

let test_db_lookup () =
  let db = Db.create () in
  let and2 = T.land_ (T.var 2 0) (T.var 2 1) in
  Alcotest.(check (option int)) "and2 optimal size" (Some 1)
    (Db.optimal_size db and2);
  (* NOR shares AND's class, so no extra synthesis is necessary. *)
  let cached = Db.classes_cached db in
  let nor2 = T.lnot (T.lor_ (T.var 2 0) (T.var 2 1)) in
  Alcotest.(check (option int)) "nor2 optimal size" (Some 1)
    (Db.optimal_size db nor2);
  Alcotest.(check int) "class shared" cached (Db.classes_cached db)

let test_db_instantiate () =
  let db = Db.create () in
  let f = T.of_hex 4 "cafe" in
  let ntk = N.create () in
  let leaves = Array.init 4 (fun i -> N.pi ntk (Printf.sprintf "x%d" i)) in
  match Db.instantiate db f ntk leaves with
  | None -> Alcotest.fail "cafe must be synthesizable"
  | Some out ->
      N.po ntk "y" out;
      Alcotest.(check tt) "instantiated" f (N.simulate ntk).(0)

let prop_db_instantiate_random =
  let db = Db.create () in
  QCheck.Test.make ~name:"db instantiation matches function" ~count:25
    (QCheck.map (fun v -> T.of_bits 3 (Int64.of_int (v land 0xff))) QCheck.int)
    (fun f ->
      let ntk = N.create () in
      let leaves = Array.init 3 (fun i -> N.pi ntk (Printf.sprintf "x%d" i)) in
      match Db.instantiate db f ntk leaves with
      | None -> false
      | Some out ->
          N.po ntk "y" out;
          T.equal (N.simulate ntk).(0) f)

(* --- rewriting ------------------------------------------------------------------ *)

let equivalent n1 n2 =
  let s1 = N.simulate n1 and s2 = N.simulate n2 in
  Array.length s1 = Array.length s2 && Array.for_all2 T.equal s1 s2

let test_rewrite_preserves_all_benchmarks () =
  let db = Db.create () in
  List.iter
    (fun b ->
      let n = b.Logic.Benchmarks.build () in
      let rewritten, stats = R.rewrite ~db n in
      Alcotest.(check bool)
        (b.Logic.Benchmarks.name ^ " equivalent")
        true (equivalent n rewritten);
      Alcotest.(check bool)
        (b.Logic.Benchmarks.name ^ " not larger")
        true
        (stats.R.size_after <= stats.R.size_before))
    Logic.Benchmarks.all

let test_rewrite_reduces_redundant () =
  (* A deliberately wasteful maj3: rewriting should shrink it. *)
  let n = N.create () in
  let a = N.pi n "a" and b = N.pi n "b" and c = N.pi n "c" in
  let ab = N.and_ n a b and ac = N.and_ n a c and bc = N.and_ n b c in
  N.po n "y" (N.or_ n (N.or_ n ab ac) bc);
  let rewritten = R.rewrite_to_fixpoint n in
  Alcotest.(check bool) "equivalent" true (equivalent n rewritten);
  Alcotest.(check bool) "reduced" true (N.num_gates rewritten <= 5)

let () =
  let qt = List.map (QCheck_alcotest.to_alcotest ~verbose:false) in
  Alcotest.run "synthesis"
    [
      ( "cuts",
        [
          Alcotest.test_case "trivial cuts" `Quick test_trivial_cuts;
          Alcotest.test_case "cut functions" `Quick test_cut_functions;
          Alcotest.test_case "cut limits" `Quick test_cut_limit;
          Alcotest.test_case "mffc" `Quick test_mffc;
          Alcotest.test_case "priority = exhaustive" `Quick
            test_priority_matches_exhaustive;
        ] );
      ( "exact",
        [
          Alcotest.test_case "known functions" `Quick test_exact_basic;
          Alcotest.test_case "constants" `Quick test_exact_constants;
          Alcotest.test_case "projections" `Quick test_exact_projection;
          Alcotest.test_case "instantiate" `Quick test_exact_instantiate;
        ]
        @ qt [ prop_exact_random_3 ] );
      ( "npn-db",
        [
          Alcotest.test_case "lookup" `Quick test_db_lookup;
          Alcotest.test_case "instantiate" `Quick test_db_instantiate;
        ]
        @ qt [ prop_db_instantiate_random ] );
      ( "rewrite",
        [
          Alcotest.test_case "all benchmarks preserved" `Slow
            test_rewrite_preserves_all_benchmarks;
          Alcotest.test_case "redundant maj3 shrinks" `Quick
            test_rewrite_reduces_redundant;
        ] );
    ]
