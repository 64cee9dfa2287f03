(* End-to-end benchmark entry point; README.md documents the workloads and
   metrics.

     e2e.exe run --workload W --seed S [--seconds N] [--trace 0|1]
                 [--out FILE] [--trace-out FILE]
     e2e.exe setup --workload W --seed S [--seconds N]
     e2e.exe smoke [--spec BENCHMARK.json]
     e2e.exe compare A.jsonl B.jsonl [--spec BENCHMARK.json]

   [run] prints every metric by name and unit, then, as its last line,
   the JSON result; it exits 1 when any output check failed.  [setup]
   performs one workload's set-up and exits: [run] times it in fresh
   processes, so lazily built tables count as set-up.  [compare]
   compares two sets of results collected by run.sh. *)

module Json = Serve.Json

type runner = trace:Trace.t option -> Report.t -> unit

let prepare ?(smoke = false) workload ~seed ~seconds : runner =
  match workload with
  | "table1_exact" | "table1_scalable" ->
      let engine =
        if workload = "table1_exact" then Table1_bench.Exact
        else Table1_bench.Scalable
      in
      let names = if smoke then Some [ "xor2"; "c17" ] else None in
      Table1_bench.prepare ?names engine ~seed ~seconds
  | "serve_mixed" ->
      if smoke then Serve_bench.prepare ~rate:50. ~n:50 ~seed ~seconds ()
      else Serve_bench.prepare ~seed ~seconds ()
  | "layout_physics" ->
      if smoke then
        Physics_bench.prepare ~simulated:[ "c17" ] ~domain:None ~seed ~seconds ()
      else Physics_bench.prepare ~seed ~seconds ()
  | w -> raise (Arg.Bad ("unknown workload " ^ w))

(* Every run pins the same settings: one worker, a portfolio of one
   solver, and no FICTIONETTE_* environment override (an empty value
   reads as unset). *)
let pin_settings () =
  Array.iter
    (fun kv ->
      match String.index_opt kv '=' with
      | Some i when String.starts_with ~prefix:"FICTIONETTE_" kv ->
          Unix.putenv (String.sub kv 0 i) ""
      | _ -> ())
    (Unix.environment ());
  Parallel.Pool.set_default_jobs 1;
  Sat.Portfolio.set_default_k 1

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> go ()
      in
      go ())

let setup_samples = 5

(* Wall time of [setup_samples] fresh processes that each set the
   workload up and exit. *)
let setup_seconds ~workload ~seed ~seconds =
  List.init setup_samples (fun _ ->
      let exe = Sys.executable_name in
      let t0 = Clock.now () in
      let pid =
        Unix.create_process exe
          [|
            exe; "setup"; "--workload"; workload; "--seed"; string_of_int seed;
            "--seconds"; string_of_float seconds;
          |]
          Unix.stdin Unix.stderr Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> Clock.now () -. t0
      | _ -> failwith "set-up process failed")

type outcome = {
  workload : string;
  report : Report.t;
  values : (string * string * float) list;  (* name, unit, value *)
  correct : bool;
}

let measure ?smoke ~workload ~seed ~seconds ~trace ~setup () =
  let runner, in_process_setup =
    Passes.timed (fun () -> prepare ?smoke workload ~seed ~seconds)
  in
  let report = Report.create () in
  let tr = if trace then Some (Trace.create ~now:Clock.now) else None in
  runner ~trace:tr report;
  let measured =
    match tr with
    | None ->
        let setup = match setup with Some s -> s | None -> [ in_process_setup ] in
        ("setup_s", Stats.median setup) :: ("peak_rss_mb", peak_rss_mb ())
        :: report.Report.metrics
    | Some tr ->
        let wall = Trace.root_time tr in
        let self = Trace.self_times tr in
        let layer_self =
          Stats.sum
            (List.filter_map
               (fun (n, s) ->
                 if String.starts_with ~prefix:"bench." n then None else Some s)
               self)
        in
        (("trace.coverage", layer_self /. wall)
        :: List.map
             (fun sp ->
               ( Spec.share_name sp,
                 100. *. Option.value (List.assoc_opt sp self) ~default:0. /. wall ))
             Spec.spans)
        @ report.Report.metrics
  in
  let spec = if trace then Spec.per_layer else Spec.end_to_end in
  (* An end-to-end metric is never 0; a per-layer one is 0 when the
     workload never enters that layer. *)
  let values =
    List.map
      (fun (name, unit) ->
        (name, unit, Option.value (List.assoc_opt name measured) ~default:0.))
      spec
  in
  Report.check report "every metric is finite"
    (List.for_all (fun (_, _, v) -> Float.is_finite v) values);
  if not trace then
    Report.check report "every end-to-end metric is positive"
      (List.for_all (fun (_, _, v) -> v > 0.) values);
  let correct = report.Report.failed = 0 && report.Report.attempted > 0 in
  ({ workload; report; values; correct }, tr)

let result_json o =
  Json.Obj
    [
      ("correct", Json.Bool o.correct);
      ("attempted", Json.Num (float_of_int o.report.Report.attempted));
      ("failed", Json.Num (float_of_int o.report.Report.failed));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit, v) ->
               (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
             o.values) );
    ]

let print_outcome ~seed ~trace o =
  let r = o.report in
  Printf.printf "workload %s  seed %d  trace %d\n" o.workload seed
    (if trace then 1 else 0);
  List.iter (fun (n, u, v) -> Printf.printf "  %-34s %14.6f %s\n" n v u) o.values;
  List.iter
    (fun (n, v, u) -> Printf.printf "  detail %-27s %14.6f %s\n" n v u)
    (List.rev r.Report.info);
  List.iter
    (fun (name, p, f) ->
      Printf.printf "  check %s: %d/%d passed%s\n" name p (p + f)
        (if f > 0 then "  FAILED" else ""))
    (Report.checks r);
  Printf.printf "  operations: %d attempted, %d failed (fail_frac %.6f)\n"
    r.Report.attempted r.Report.failed
    (float_of_int r.Report.failed /. float_of_int (max 1 r.Report.attempted))

let write_file path contents =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc contents)

let detail_json ~seed ~seconds ~trace ~setup o =
  let r = o.report in
  Json.Obj
    [
      ("workload", Json.Str o.workload);
      ("seed", Json.Num (float_of_int seed));
      ("seconds", Json.Num seconds);
      ("trace", Json.Bool trace);
      ("result", result_json o);
      ("setup_samples_s", Json.List (List.map (fun s -> Json.Num s) setup));
      ( "detail",
        Json.Obj
          (List.rev_map
             (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str u) ]))
             r.Report.info) );
      ( "checks",
        Json.Obj
          (List.map
             (fun (n, p, f) ->
               (n, Json.Obj [ ("passed", Json.Num (float_of_int p)); ("failed", Json.Num (float_of_int f)) ]))
             (Report.checks r)) );
    ]

let run ~workload ~seed ~seconds ~trace ~out ~trace_out =
  pin_settings ();
  let setup = if trace then None else Some (setup_seconds ~workload ~seed ~seconds) in
  let o, tr = measure ~workload ~seed ~seconds ~trace ~setup () in
  print_outcome ~seed ~trace o;
  Option.iter
    (fun path ->
      let setup = Option.value setup ~default:[] in
      write_file path (Json.to_string (detail_json ~seed ~seconds ~trace ~setup o) ^ "\n"))
    out;
  (match (tr, trace_out) with
  | Some tr, Some path -> write_file path (Trace.to_chrome_json tr)
  | _ -> ());
  print_endline (Json.to_string (result_json o));
  exit (if o.correct then 0 else 1)

(* --- BENCHMARK.json ---------------------------------------------------- *)

let read_json path =
  match Json.parse (In_channel.with_open_text path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let spec_metrics j key =
  Option.bind (Json.mem key j) Json.list_
  |> Option.value ~default:[]
  |> List.filter_map (fun m ->
         match (Option.bind (Json.mem "name" m) Json.str, Option.bind (Json.mem "unit" m) Json.str) with
         | Some n, Some u -> Some (n, u, m)
         | _ -> None)

let spec_workloads j =
  Option.bind (Json.mem "workloads" j) Json.list_
  |> Option.value ~default:[]
  |> List.filter_map (fun w -> Option.bind (Json.mem "name" w) Json.str)

(* --- smoke ------------------------------------------------------------- *)

(* Every workload on small inputs, untraced and traced: every metric
   BENCHMARK.json names must be reported with its unit and every check
   must pass. *)
let smoke ~spec =
  pin_settings ();
  let j = read_json spec in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let same what listed ours =
    if List.map (fun (n, u, _) -> (n, u)) listed <> ours then
      fail "%s in %s differ from the metrics e2e.exe reports" what spec
  in
  same "end_to_end metrics" (spec_metrics j "end_to_end") Spec.end_to_end;
  same "per_layer metrics" (spec_metrics j "per_layer") Spec.per_layer;
  if spec_workloads j <> Spec.workloads then fail "workloads in %s differ" spec;
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let o, _ = measure ~smoke:true ~workload ~seed:1 ~seconds:0. ~trace ~setup:None () in
          if not o.correct then begin
            print_outcome ~seed:1 ~trace o;
            fail "%s (trace %b) failed a check" workload trace
          end)
        [ false; true ])
    Spec.workloads;
  match !failures with
  | [] -> print_endline "smoke: ok"
  | fs ->
      List.iter prerr_endline (List.rev fs);
      exit 1

(* --- compare ----------------------------------------------------------- *)

(* A set is JSON lines {"workload": W, "seed": S, "result": <run result>}. *)
let read_set path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map (fun l ->
         match Json.parse l with
         | Ok j -> j
         | Error e -> failwith (path ^ ": " ^ e))

let values set ~workload ~metric =
  List.filter_map
    (fun j ->
      if Option.bind (Json.mem "workload" j) Json.str = Some workload then
        List.fold_left
          (fun acc k -> Option.bind acc (Json.mem k))
          (Some j) [ "result"; "metrics"; metric; "value" ]
        |> Fun.flip Option.bind Json.num
      else None)
    set

let compare_sets ~spec a b =
  let j = read_json spec in
  let sa = read_set a and sb = read_set b in
  let regressions = ref 0 in
  Printf.printf "%-16s %-12s %34s %34s  %s\n" "workload" "metric"
    "A median [q1, q3] (spread)" "B median [q1, q3] (spread)" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun (metric, _unit, m) ->
          let bound = Option.value (Option.bind (Json.mem "bound" m) Json.num) ~default:0. in
          let lower = Option.bind (Json.mem "better" m) Json.str <> Some "higher" in
          let side xs =
            let med = Stats.median xs and q1, q3 = Stats.quartiles xs in
            (med, q1, q3, (q3 -. q1) /. med)
          in
          let va = values sa ~workload ~metric and vb = values sb ~workload ~metric in
          if va <> [] && vb <> [] then begin
            let ma, qa1, qa3, spa = side va and mb, qb1, qb3, spb = side vb in
            let worse = (if lower then mb -. ma else ma -. mb) /. ma in
            let verdict =
              if metric <> "setup_s" && Float.max spa spb > bound then "unresolved"
              else if worse > bound then (incr regressions; "WORSE")
              else if -.worse > bound then "better"
              else "same"
            in
            let cell m q1 q3 sp = Printf.sprintf "%.4g [%.4g, %.4g] (%.1f%%)" m q1 q3 (100. *. sp) in
            Printf.printf "%-16s %-12s %34s %34s  %s (%+.1f%% worse, bound %.0f%%)\n"
              workload metric (cell ma qa1 qa3 spa) (cell mb qb1 qb3 spb) verdict
              (100. *. worse) (100. *. bound)
          end)
        (spec_metrics j "end_to_end"))
    (spec_workloads j);
  exit (if !regressions > 0 then 1 else 0)

(* --- command line ------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let out = ref None and trace_out = ref None and spec = ref "BENCHMARK.json" in
  let positional = ref [] in
  let args =
    [
      ("--workload", Arg.Set_string workload, "W  workload name");
      ("--seed", Arg.Set_int seed, "S  input seed");
      ("--seconds", Arg.Set_float seconds, "N  measurement length");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run");
      ("--out", Arg.String (fun s -> out := Some s), "FILE  detailed results");
      ("--trace-out", Arg.String (fun s -> trace_out := Some s), "FILE  Chrome trace");
      ("--spec", Arg.Set_string spec, "FILE  BENCHMARK.json");
    ]
  in
  let usage = "e2e.exe (run|setup|smoke|compare) [options]" in
  Arg.parse args (fun a -> positional := !positional @ [ a ]) usage;
  match !positional with
  | [ "run" ] ->
      run ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
        ~out:!out ~trace_out:!trace_out
  | [ "setup" ] ->
      pin_settings ();
      let (_ : runner) = prepare !workload ~seed:!seed ~seconds:!seconds in
      ()
  | [ "smoke" ] -> smoke ~spec:!spec
  | [ "compare"; a; b ] -> compare_sets ~spec:!spec a b
  | _ ->
      Arg.usage args usage;
      exit 2
