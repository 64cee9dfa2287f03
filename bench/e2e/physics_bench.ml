(* The layout_physics workload: whole-layout ground states of three
   placed-and-routed benchmarks (quicksim, hundreds of DBs each) and the
   whole-layout operational domain of a fourth, on a grid where every
   point costs 2^inputs ground-state solves.  The inputs are fixed; the
   seed plays no part. *)

let simulated = [ "c17"; "newtag"; "t" ]
let domain_target = "mux21"

(* Quicksim's ground-state energy is an upper bound on the exact one: a
   change may lower it but not raise it. *)
let pinned_energy =
  [ ("c17", -54.7703058093); ("newtag", -85.175601235); ("t", -88.8710305754) ]

let energy_tolerance = 1e-6

let domain_config =
  { Sidb.Operational_domain.default_config with algorithm = Sidb.Operational_domain.Grid }

let grid_points =
  Core.Flow.default_domain_x_axis.Sidb.Operational_domain.steps
  * Core.Flow.default_domain_y_axis.Sidb.Operational_domain.steps

(* [valid]: at least one ground state, and every ground state found is
   physically valid. *)
type sim = { energy : float; valid : bool; sites : int }

let flow_sim r =
  Core.Flow.simulate_layout r
  |> Result.map (fun s ->
         {
           energy = s.Core.Flow.sim_energy;
           valid = s.Core.Flow.sim_valid;
           sites = s.Core.Flow.sim_sites;
         })

(* [Core.Flow.simulate_layout]'s steps for a quicksim-sized layout,
   called one by one inside spans.  Unlike the flow, which keeps only the
   valid ground states, this counts the invalid ones too. *)
let staged_sim tr r =
  match
    Trace.span tr "bestagon.assembly" (fun () ->
        Bestagon.Assembly.assemble ~inputs:[] r.Core.Flow.supertiled)
  with
  | Error e -> Error e
  | Ok asm ->
      let n = asm.Bestagon.Assembly.site_count in
      let sys = asm.Bestagon.Assembly.system in
      Trace.count tr "bestagon.assembled_sites" (float_of_int n);
      if n <= Core.Flow.exact_site_limit then
        Error "system small enough for an exact engine"
      else
        let spectrum, e0, ground, valid =
          Trace.span tr "sidb.quicksim" (fun () ->
              let spectrum =
                Sidb.Ground_state.quicksim_spectrum
                  ~config:Sidb.Ground_state.default_quicksim sys
              in
              let e0 = match spectrum with (_, e) :: _ -> e | [] -> infinity in
              let ground =
                List.filter_map
                  (fun (occ, e) -> if Float.abs (e -. e0) <= 1e-9 then Some occ else None)
                  spectrum
              in
              (spectrum, e0, ground, List.filter (Sidb.Charge_system.physically_valid sys) ground))
        in
        Trace.count tr "sidb.spectrum_states" (float_of_int (List.length spectrum));
        ignore
          (Trace.span tr "sidb.temperature" (fun () ->
               Sidb.Temperature.critical_temperature_of_spectrum spectrum));
        Ok
          {
            energy = e0;
            valid = valid <> [] && List.length valid = List.length ground;
            sites = n;
          }

let layout_domain r = Core.Flow.domain_of_layout ~config:domain_config r

let domain_points = function
  | Ok d ->
      d.Core.Flow.dom_domain.Sidb.Operational_domain.stats
        .Sidb.Operational_domain.points_evaluated
  | Error _ -> 0

type pass = {
  sims : (string * (sim, string) result * float) list;
  dom : ((Core.Flow.layout_domain, string) result * float) option;
  wall : float;
}

let run_pass ~sim ~dom layouts target =
  let (sims, dom), wall =
    Passes.timed (fun () ->
        let sims =
          List.map
            (fun (name, r) ->
              let s, t = Passes.timed (fun () -> sim r) in
              (name, s, t))
            layouts
        in
        (sims, Option.map (fun t -> Passes.timed (fun () -> dom t)) target))
  in
  { sims; dom; wall }

let sim_seconds p = List.map (fun (_, _, t) -> t) p.sims
let dom_seconds p = Option.fold ~none:[] ~some:(fun (_, t) -> [ t ]) p.dom
let energies p = List.map (fun (name, s, _) -> (name, Result.map (fun s -> s.energy) s)) p.sims

let record (r : Report.t) p =
  List.iter
    (fun (name, s, _) ->
      Report.op r
        (match s with
        | Error _ -> [ ("whole-layout simulation succeeds", false) ]
        | Ok s ->
            [
              ("whole-layout simulation succeeds", true);
              ("every ground state is physically valid", s.valid);
              ( "ground energy within pin",
                s.energy <= List.assoc name pinned_energy +. energy_tolerance );
            ]))
    p.sims;
  Option.iter
    (fun (d, _) ->
      Report.op r [ ("domain evaluates every grid point", domain_points d = grid_points) ])
    p.dom

let untraced layouts target ~seconds (r : Report.t) =
  let passes =
    Passes.repeat ~seconds ~min:3 (fun _ ->
        run_pass ~sim:flow_sim ~dom:layout_domain layouts target)
  in
  List.iter (record r) passes;
  let med f = Stats.median (List.map f passes) in
  let op_ms q p = 1000. *. Stats.percentile q (sim_seconds p @ dom_seconds p) in
  Report.metric r "pass_s" (med (fun p -> p.wall));
  Report.metric r "p50_ms" (med (op_ms 0.5));
  Report.metric r "p99_ms" (med (op_ms 0.99));
  Report.info r "sim_s" (med (fun p -> Stats.sum (sim_seconds p))) "s";
  Report.info r "domain_s" (med (fun p -> Stats.sum (dom_seconds p))) "s";
  let last = List.nth passes (List.length passes - 1) in
  List.iter
    (fun (name, s, _) ->
      Result.iter
        (fun s ->
          Report.info r (name ^ "_sites") (float_of_int s.sites) "count";
          Report.info r (name ^ "_energy_ev") s.energy "eV";
          Report.info r (name ^ "_sim_s")
            (med (fun p ->
                 List.fold_left (fun acc (n, _, t) -> if n = name then t else acc) nan p.sims))
            "s")
        s)
    last.sims;
  Report.info r "layout_energy_ev"
    (Stats.sum (List.map (fun (_, e) -> Result.value e ~default:nan) (energies last)))
    "eV";
  Report.info r "passes" (float_of_int (List.length passes)) "count";
  Report.check r "every pass gives the same energies"
    (List.for_all (fun p -> energies p = energies last) passes)

let traced layouts target ~seconds tr (r : Report.t) =
  let traced_dom t =
    let d = Trace.span tr "core.domain_of_layout" (fun () -> layout_domain t) in
    Trace.count tr "core.domain_points_evaluated" (float_of_int (domain_points d));
    d
  in
  let plain, traced =
    Passes.alternate ~seconds
      ~plain:(fun _ -> run_pass ~sim:flow_sim ~dom:layout_domain layouts target)
      ~traced:(fun i ->
        Trace.span tr ~request_id:i "bench.pass" (fun () ->
            run_pass ~sim:(staged_sim tr) ~dom:traced_dom layouts target))
  in
  List.iter (record r) (plain @ traced);
  let reference = energies (List.hd plain) in
  Report.check r "staged simulation matches Flow.simulate_layout"
    (List.for_all (fun p -> energies p = reference) traced);
  let n = float_of_int (List.length traced) in
  List.iter
    (fun name -> Report.metric r name (Trace.counter tr name /. n))
    [ "bestagon.assembled_sites"; "sidb.spectrum_states"; "core.domain_points_evaluated" ];
  let dom_s = Stats.sum (List.concat_map dom_seconds traced) in
  Report.metric r "core.domain_points_per_s"
    (if dom_s > 0. then Trace.counter tr "core.domain_points_evaluated" /. dom_s else 0.);
  Report.metric r "trace.overhead_frac"
    (Passes.overhead
       ~plain_s:(List.map (fun p -> p.wall) plain)
       ~traced_s:(List.map (fun p -> p.wall) traced))

let prepare ?(simulated = simulated) ?(domain = Some domain_target) ~seed:_
    ~seconds () =
  let build name =
    match Core.Flow.run_benchmark name with
    | Ok r -> (name, r)
    | Error f -> failwith (name ^ ": " ^ Core.Flow.error_message f)
  in
  let layouts = List.map build simulated in
  let target = Option.map (fun n -> snd (build n)) domain in
  fun ~trace r ->
    match trace with
    | None -> untraced layouts target ~seconds r
    | Some tr -> traced layouts target ~seconds tr r
