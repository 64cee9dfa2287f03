(* Metric names and units.  BENCHMARK.json lists the same names with
   their bounds; the smoke test fails if the two disagree. *)

let workloads =
  [ "table1_exact"; "table1_scalable"; "serve_mixed"; "layout_physics" ]

(* Reported with tracing off.  Each is defined per workload in README.md. *)
let end_to_end =
  [
    ("setup_s", "s");
    ("pass_s", "s");
    ("p50_ms", "ms");
    ("p99_ms", "ms");
    ("peak_rss_mb", "MB");
  ]

(* Spans, one per call into a layer; each is reported as its self time's
   share of the traced wall time. *)
let spans =
  [
    "logic.parse";
    "logic.rewrite";
    "logic.map";
    "physdesign.exact";
    "physdesign.scalable";
    "verify.equivalence";
    "layout.drc";
    "layout.supertile";
    "bestagon.library";
    "bestagon.sqd";
    "bestagon.assembly";
    "sidb.quicksim";
    "sidb.temperature";
    "core.domain_of_layout";
    "serve.decode";
    "serve.design";
    "serve.check";
    "serve.simulate";
    "serve.domain";
    "serve.encode";
  ]

let share_name span = span ^ "_pct"

(* Counters are per traced pass. *)
let counters =
  [
    ("logic.gates_out", "count");
    ("logic.npn_hit_ratio", "ratio");
    ("physdesign.candidates", "count");
    ("physdesign.rounds", "count");
    ("physdesign.useful_ratio", "ratio");
    ("sat.conflicts", "count");
    ("sat.decisions", "count");
    ("sat.propagations", "count");
    ("sat.props_per_s", "1/s");
    ("bestagon.assembled_sites", "count");
    ("sidb.spectrum_states", "count");
    ("core.domain_points_evaluated", "count");
    ("core.domain_points_per_s", "1/s");
    ("core.memo_synth_hit_ratio", "ratio");
    ("core.memo_layout_hit_ratio", "ratio");
    ("core.memo_verdict_hit_ratio", "ratio");
    ("trace.coverage", "ratio");
    ("trace.overhead_frac", "ratio");
  ]

let per_layer = List.map (fun s -> (share_name s, "%")) spans @ counters
