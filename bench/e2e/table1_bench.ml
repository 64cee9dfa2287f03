(* The Table-1 workloads: the paper's 14 benchmark circuits taken from
   netlist to .sqd design text, under the exact or the scalable P&R
   engine.  The inputs are fixed; the seed plays no part. *)

type engine = Exact | Scalable

let names = List.map fst Core.Table1.paper_rows

(* The two rows where exact P&R spends most of its time. *)
let tail = [ "majority_5_r1"; "cm82a_5" ]

(* Pinned outputs.  Exact P&R returns a minimum-area layout, so its
   w x h may not change; the scalable heuristic may shrink a layout but
   never grow it.  Neither engine's DB total may grow. *)
let pinned_dims = function
  | Exact ->
      [
        ("xor2", (2, 3)); ("xnor2", (2, 3)); ("par_gen", (3, 4));
        ("mux21", (3, 6)); ("par_check", (4, 5)); ("xor5_r1", (5, 6));
        ("xor5_majority", (5, 6)); ("t", (5, 10)); ("t_5", (5, 10));
        ("c17", (5, 8)); ("majority", (3, 8)); ("majority_5_r1", (5, 20));
        ("cm82a_5", (5, 18)); ("newtag", (8, 10));
      ]
  | Scalable ->
      [
        ("xor2", (3, 6)); ("xnor2", (3, 6)); ("par_gen", (3, 8));
        ("mux21", (5, 13)); ("par_check", (4, 10)); ("xor5_r1", (5, 17));
        ("xor5_majority", (5, 12)); ("t", (8, 40)); ("t_5", (8, 40));
        ("c17", (6, 26)); ("majority", (5, 16)); ("majority_5_r1", (11, 68));
        ("cm82a_5", (8, 68)); ("newtag", (8, 37));
      ]

let pinned_sidbs = function Exact -> 5879 | Scalable -> 15874

let options = function
  | Exact -> Core.Flow.default_options
  | Scalable -> { Core.Flow.default_options with engine = Core.Flow.Scalable }

(* What a row produces, by either path. *)
type out = {
  spec : Logic.Network.t;
  layout : Layout.Gate_layout.t;
  equivalent : bool;  (* the flow's own SAT-miter verdict *)
  drc_clean : bool;
  sidbs : int;
  sqd : string;
}

type row = { name : string; seconds : float; out : (out, string) result }

let flow_row engine name =
  match Core.Flow.run_benchmark ~options:(options engine) name with
  | Error f -> Error (Core.Flow.error_message f)
  | Ok r -> (
      match r.Core.Flow.sidb with
      | None -> Error "no SiDB layout"
      | Some l ->
          Ok
            {
              spec = r.Core.Flow.specification;
              layout = r.Core.Flow.gate_layout;
              equivalent =
                r.Core.Flow.equivalence = Some Verify.Equivalence.Equivalent;
              drc_clean = r.Core.Flow.drc_violations = [];
              sidbs = l.Bestagon.Library.sidb_count;
              sqd = Bestagon.Sqd.of_sites l.Bestagon.Library.sites;
            })

let count_exact tr (r : Physdesign.Exact.result) =
  let c name v = Trace.count tr name (float_of_int v) in
  let s = r.Physdesign.Exact.stats in
  c "physdesign.candidates" r.Physdesign.Exact.attempts;
  c "physdesign.rounds" r.Physdesign.Exact.rounds;
  c "physdesign.exact_rows" 1;
  c "sat.conflicts" s.Sat.Solver.conflicts;
  c "sat.decisions" s.Sat.Solver.decisions;
  c "sat.propagations"
    (s.Sat.Solver.propagations + s.Sat.Solver.binary_propagations);
  Trace.count tr "sat.solve_s" s.Sat.Solver.solve_time_s

(* The stages [Core.Flow.run] performs with these options, called one by
   one inside spans.  Rows must come out identical to [flow_row]. *)
let staged_row tr engine name =
  let sp name f = Trace.span tr name f in
  let spec =
    sp "logic.parse" (fun () ->
        (Logic.Benchmarks.find name).Logic.Benchmarks.build ())
  in
  let optimized =
    sp "logic.rewrite" (fun () -> Logic.Rewrite.rewrite_to_fixpoint spec)
  in
  let mapped, _ =
    sp "logic.map" (fun () -> Logic.Tech_map.map ~fuse_half_adders:true optimized)
  in
  Trace.count tr "logic.gates_out" (float_of_int (Logic.Mapped.num_gates mapped));
  let placed =
    match engine with
    | Exact -> (
        match
          sp "physdesign.exact" (fun () ->
              Physdesign.Exact.place_and_route
                ~config:Physdesign.Exact.default_config
                (Physdesign.Netlist.of_mapped mapped))
        with
        | Ok r ->
            count_exact tr r;
            Ok r.Physdesign.Exact.layout
        | Error f -> Error (Physdesign.Exact.failure_message f))
    | Scalable ->
        sp "physdesign.scalable" (fun () ->
            Physdesign.Scalable.place_and_route
              (Physdesign.Netlist.of_mapped mapped))
        |> Result.map (fun r -> r.Physdesign.Scalable.layout)
  in
  match placed with
  | Error e -> Error e
  | Ok layout -> (
      let drc = sp "layout.drc" (fun () -> Layout.Design_rules.check layout) in
      let verdict =
        sp "verify.equivalence" (fun () ->
            Verify.Equivalence.check_layout
              ~budget:(Core.Budget.verification_grace Core.Budget.unlimited)
              spec layout)
      in
      let supertiled =
        sp "layout.supertile" (fun () -> Layout.Supertile.expand layout)
      in
      match sp "bestagon.library" (fun () -> Bestagon.Library.apply supertiled) with
      | Error e -> Error e
      | Ok l ->
          let sqd =
            sp "bestagon.sqd" (fun () ->
                Bestagon.Sqd.of_sites l.Bestagon.Library.sites)
          in
          Ok
            {
              spec;
              layout;
              equivalent = verdict = Ok Verify.Equivalence.Equivalent;
              drc_clean = drc = [];
              sidbs = l.Bestagon.Library.sidb_count;
              sqd;
            })

let dims layout =
  let s = Layout.Gate_layout.stats layout in
  (s.Layout.Gate_layout.bounding_width, s.Layout.Gate_layout.bounding_height)

let count_dots sqd =
  let tag = "<dbdot>" in
  let n = String.length tag in
  let rec go i acc =
    if i + n > String.length sqd then acc
    else if String.sub sqd i n = tag then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

(* Independent of the timed code: the layout's network is extracted and
   compared with the specification by exhaustive simulation, not by the
   SAT miter the flow uses. *)
let brute_force_equivalent o =
  match Verify.Extract.network o.layout with
  | Ok net ->
      Verify.Equivalence.check_brute_force ~jobs:1 o.spec net
      = Verify.Equivalence.Equivalent
  | Error _ -> false

let row_checks engine row =
  match row.out with
  | Error _ -> [ ("flow succeeds", false) ]
  | Ok o ->
      let w, h = dims o.layout in
      let pw, ph = List.assoc row.name (pinned_dims engine) in
      [
        ("flow succeeds", true);
        ("flow verdict is equivalent", o.equivalent);
        ("DRC clean", o.drc_clean);
        ("brute-force simulation agrees with the spec", brute_force_equivalent o);
        ( "w x h as pinned",
          match engine with
          | Exact -> (w, h) = (pw, ph)
          | Scalable -> w * h <= pw * ph );
        ("sqd holds every DB", count_dots o.sqd = o.sidbs);
      ]

(* One pass: every row once, in Table-1 order.  Returns the rows and the
   pass's wall time. *)
let pass names run =
  Passes.timed (fun () ->
      List.map
        (fun name ->
          let out, seconds = Passes.timed (fun () -> run name) in
          { name; seconds; out })
        names)

let seconds_where rows keep =
  Stats.sum (List.filter_map (fun r -> if keep r.name then Some r.seconds else None) rows)

let summary rows =
  List.map
    (fun r -> (r.name, Result.map (fun o -> (dims o.layout, o.sidbs)) r.out))
    rows

let untraced engine names ~seconds (r : Report.t) =
  (* Three passes at least: the median of two is their mean, and one
     disturbed pass would move it. *)
  let passes = Passes.repeat ~seconds ~min:3 (fun _ -> pass names (flow_row engine)) in
  List.iter (fun (rows, _) -> List.iter (fun row -> Report.op r (row_checks engine row)) rows) passes;
  let med f = Stats.median (List.map f passes) in
  let row_ms q (rows, _) = 1000. *. Stats.percentile q (List.map (fun x -> x.seconds) rows) in
  Report.metric r "pass_s" (med snd);
  Report.metric r "p50_ms" (med (row_ms 0.5));
  Report.metric r "p99_ms" (med (row_ms 0.99));
  let in_tail n = List.mem n tail in
  Report.info r "flow_s" (med (fun (rows, _) -> seconds_where rows (fun _ -> true))) "s";
  Report.info r "head_s" (med (fun (rows, _) -> seconds_where rows (fun n -> not (in_tail n)))) "s";
  Report.info r "tail_s" (med (fun (rows, _) -> seconds_where rows in_tail)) "s";
  List.iter
    (fun name ->
      Report.info r (name ^ "_s") (med (fun (rows, _) -> seconds_where rows (( = ) name))) "s")
    names;
  let last = fst (List.nth passes (List.length passes - 1)) in
  let area, sidbs =
    List.fold_left
      (fun (area, sidbs) (_, o) ->
        match o with Ok ((w, h), s) -> (area + (w * h), sidbs + s) | Error _ -> (area, sidbs))
      (0, 0) (summary last)
  in
  Report.info r "area_tiles" (float_of_int area) "tiles";
  Report.info r "sidbs" (float_of_int sidbs) "count";
  Report.info r "passes" (float_of_int (List.length passes)) "count";
  Report.check r "DB total within pin" (sidbs <= pinned_sidbs engine);
  Report.check r "every pass gives the same layouts"
    (List.for_all (fun (rows, _) -> summary rows = summary last) passes)

let traced engine names ~seconds tr (r : Report.t) =
  let rows = ref 0 in
  let traced_pass _ =
    let l1, l2, m = Logic.Npn.cache_stats () in
    let res =
      Trace.span tr "bench.pass" (fun () ->
          pass names (fun name ->
              incr rows;
              Trace.span tr ~request_id:!rows "bench.row" (fun () ->
                  staged_row tr engine name)))
    in
    let l1', l2', m' = Logic.Npn.cache_stats () in
    Trace.count tr "logic.npn_hits" (float_of_int (l1' - l1 + (l2' - l2)));
    Trace.count tr "logic.npn_lookups" (float_of_int (l1' - l1 + (l2' - l2) + (m' - m)));
    res
  in
  let plain, traced =
    Passes.alternate ~seconds ~plain:(fun _ -> pass names (flow_row engine)) ~traced:traced_pass
  in
  List.iter
    (fun (rows, _) -> List.iter (fun row -> Report.op r (row_checks engine row)) rows)
    (plain @ traced);
  let reference = summary (fst (List.hd plain)) in
  Report.check r "staged rows match Flow.run"
    (List.for_all (fun (rows, _) -> summary rows = reference) traced);
  let per_pass name = Trace.counter tr name /. float_of_int (List.length traced) in
  List.iter
    (fun name -> Report.metric r name (per_pass name))
    [
      "logic.gates_out"; "physdesign.candidates"; "physdesign.rounds";
      "sat.conflicts"; "sat.decisions"; "sat.propagations";
    ];
  let ratio a b =
    let d = Trace.counter tr b in
    if d = 0. then 0. else Trace.counter tr a /. d
  in
  Report.metric r "logic.npn_hit_ratio" (ratio "logic.npn_hits" "logic.npn_lookups");
  Report.metric r "physdesign.useful_ratio" (ratio "physdesign.exact_rows" "physdesign.candidates");
  Report.metric r "sat.props_per_s" (ratio "sat.propagations" "sat.solve_s");
  Report.metric r "trace.overhead_frac"
    (Passes.overhead ~plain_s:(List.map snd plain) ~traced_s:(List.map snd traced))

let prepare ?(names = names) engine ~seed:_ ~seconds =
  (* Warm-up: lazily built tables (the NPN database among them) are
     filled before anything is timed. *)
  ignore (flow_row engine "xor2");
  fun ~trace r ->
    match trace with
    | None -> untraced engine names ~seconds r
    | Some tr -> traced engine names ~seconds tr r
