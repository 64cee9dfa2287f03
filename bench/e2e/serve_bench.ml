(* The serve_mixed workload: an in-process design server receives a
   seeded stream of request lines through [Server.handle_line], in rounds
   of an open-loop pass at a fixed rate and a closed-loop pass, each on a
   fresh server.  The load comes from the server's own thread. *)

module Json = Serve.Json

(* Requests are sent at a constant rate, about a seventh of the closed
   loop's capacity.  Poisson arrivals at 300 req/s gave 10-15 % spreads
   of p50 and p99 across seeds, because bursts queued behind the rare
   long jobs; a constant 200 req/s schedule roughly halved them. *)
let rate = 200.

let gates =
  [ "wire"; "inverter"; "or2"; "and2"; "nor2"; "nand2"; "xor2"; "xnor2" ]

let gate_ops = [| "and"; "or"; "xor"; "nand" |]

type kind = Design | Check | Simulate | Domain

let kind_name = function
  | Design -> "design"
  | Check -> "check"
  | Simulate -> "simulate"
  | Domain -> "domain"

type request = {
  id : int;
  kind : kind;
  line : string;
  due : float;  (* seconds after the open loop starts *)
}

(* The flow crashes on a module with an input outside every output's
   functional support, and on a constant output (README.md, "Excluded
   inputs"); the generator draws only circuits with neither. *)
let acceptable net =
  let n = Logic.Network.num_pis net and m = Logic.Network.num_pos net in
  let rows =
    List.init (1 lsl n) (fun bits ->
        let a = Array.init n (fun i -> bits land (1 lsl i) <> 0) in
        (a, Logic.Network.eval net a))
  in
  let non_constant o =
    List.exists (fun (_, y) -> y.(o)) rows
    && List.exists (fun (_, y) -> not y.(o)) rows
  in
  let in_support i =
    List.exists
      (fun (a, y) ->
        let a' = Array.copy a in
        a'.(i) <- not a.(i);
        Logic.Network.eval net a' <> y)
      rows
  in
  List.for_all non_constant (List.init m Fun.id)
  && List.for_all in_support (List.init n Fun.id)

(* 2-4 inputs, 2-6 two-input gates, 1-2 outputs. *)
let draw_circuit rng =
  let n_in = 2 + Random.State.int rng 3
  and n_gates = 2 + Random.State.int rng 5
  and n_out = 1 + Random.State.int rng 2 in
  let signal i = if i < n_in then Printf.sprintf "a%d" i else Printf.sprintf "g%d" (i - n_in) in
  let names prefix k = List.init k (Printf.sprintf "%s%d" prefix) in
  let b = Buffer.create 256 in
  let ports = names "a" n_in @ names "y" n_out in
  Printf.bprintf b "module c(%s);\n  input %s;\n  output %s;\n  wire %s;\n"
    (String.concat ", " ports)
    (String.concat ", " (names "a" n_in))
    (String.concat ", " (names "y" n_out))
    (String.concat ", " (names "g" n_gates));
  for g = 0 to n_gates - 1 do
    let avail = n_in + g in
    let x = Random.State.int rng avail in
    let y = (x + 1 + Random.State.int rng (avail - 1)) mod avail in
    Printf.bprintf b "  %s u%d (g%d, %s, %s);\n"
      gate_ops.(Random.State.int rng (Array.length gate_ops))
      g g (signal x) (signal y)
  done;
  Printf.bprintf b "  assign y0 = g%d;\n" (n_gates - 1);
  if n_out = 2 then
    Printf.bprintf b "  assign y1 = g%d;\n" (Random.State.int rng (n_gates - 1));
  Buffer.add_string b "endmodule\n";
  Buffer.contents b

let rec fresh_circuit rng =
  let src = draw_circuit rng in
  if acceptable (Logic.Verilog.parse src) then src else fresh_circuit rng

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

let request_line ~id fields =
  Json.to_string
    (Json.Obj
       ([ ("fictionette-serve", Json.Num 1.); ("id", Json.Num (float_of_int id)) ]
       @ fields))

type stream = { requests : request list; repeated_share : float }

(* The circuits come from one fixed catalogue and each is sent twice, so
   half the design and check jobs repeat a circuit the server has seen.
   The seed shuffles the order of all requests.  Every seed thus carries
   the same work, and the metrics measure the server rather than the
   luck of the draw. *)
let catalogue_seed = 0

(* [n] requests, due at a constant [rate]: 60 % design, 15 % check,
   15 % simulate and 10 % domain jobs, the last two spread evenly over
   the library's gates. *)
let stream ~rate ~seed ~n =
  let share p = int_of_float (Float.round (p *. float_of_int n)) in
  let n_design = share 0.60 and n_check = share 0.15 and n_sim = share 0.15 in
  let n_circuit_jobs = n_design + n_check in
  let distinct = (n_circuit_jobs + 1) / 2 in
  let catalogue =
    let rng = Random.State.make [| catalogue_seed |] in
    Array.init distinct (fun _ -> fresh_circuit rng)
  in
  (* The first [n_check] circuits are sent once as a check and once as a
     design job, the others twice as design jobs. *)
  let circuit_job i =
    let c = i mod distinct in
    let kind = if i >= distinct && c < n_check then Check else Design in
    (kind, [ ("kind", Json.Str (kind_name kind)); ("verilog", Json.Str catalogue.(c)) ])
  in
  let gate_job kind extra i =
    ( kind,
      [ ("kind", Json.Str (kind_name kind));
        ("gate", Json.Str (List.nth gates (i mod List.length gates))) ]
      @ extra )
  in
  let rng = Random.State.make [| seed |] in
  let jobs =
    Array.concat
      [
        Array.init n_circuit_jobs circuit_job;
        Array.init n_sim (gate_job Simulate []);
        Array.init (n - n_circuit_jobs - n_sim) (gate_job Domain [ ("steps", Json.Num 8.) ]);
      ]
  in
  shuffle rng jobs;
  let requests =
    Array.to_list
      (Array.mapi
         (fun id (kind, fields) ->
           { id; kind; line = request_line ~id fields; due = float_of_int id /. rate })
         jobs)
  in
  {
    requests;
    repeated_share =
      float_of_int (n_circuit_jobs - distinct) /. float_of_int (max 1 n_circuit_jobs);
  }

let new_server () =
  Serve.Server.create
    ~config:{ Serve.Server.default_config with Serve.Server.jobs = Some 1 }
    ()

let response_ok kind responses =
  match responses with
  | [ line ] -> (
      match Json.parse line with
      | Error _ -> false
      | Ok j -> (
          Serve.Protocol.response_status j = Some "ok"
          &&
          match kind with
          | Design | Check ->
              Option.bind (Json.mem "result" j) (Json.mem "equivalence")
              |> Fun.flip Option.bind Json.str
              = Some "equivalent"
          | Simulate | Domain -> true))
  | _ -> false

let check_name = function
  | Design | Check -> "served design is ok and equivalent"
  | Simulate | Domain -> "served simulation is ok"

(* The server's own [stats] reply: memo hit rates and solver counters. *)
let server_stats server =
  let line = request_line ~id:(-1) [ ("kind", Json.Str "stats") ] in
  match Serve.Server.handle_line server line with
  | [ reply ] -> (
      match Json.parse reply with
      | Ok j -> Option.value (Json.mem "result" j) ~default:Json.Null
      | Error _ -> Json.Null)
  | _ -> Json.Null

let stat j path =
  List.fold_left (fun acc k -> Option.bind acc (Json.mem k)) (Some j) path
  |> Fun.flip Option.bind Json.num
  |> Option.value ~default:0.

let open_loop server requests =
  let t0 = Clock.now () in
  let late = ref 0. in
  let results =
    List.map
      (fun q ->
        let due = t0 +. q.due in
        if Clock.now () < due then begin
          (* Spin rather than sleep: a sleeping generator wakes up to a
             scheduler quantum late, and the request would pay for it. *)
          Clock.spin_until due;
          late := Float.max !late (Clock.now () -. due)
        end;
        let start = Clock.now () in
        let responses = Serve.Server.handle_line server q.line in
        let stop = Clock.now () in
        (q, responses, start -. due, stop -. start))
      requests
  in
  (results, !late)

let closed_loop handle requests =
  Passes.timed (fun () ->
      List.map
        (fun q ->
          let responses, s = Passes.timed (fun () -> handle q) in
          (q, responses, s))
        requests)

let limits =
  {
    Serve.Protocol.max_source_bytes = Serve.Server.default_config.Serve.Server.max_source_bytes;
    allow_chaos = false;
  }

(* [Server.handle_line]'s steps, called one by one inside spans. *)
let traced_handle tr server ~first_id q =
  Trace.span tr ~request_id:(first_id + q.id) "bench.request" (fun () ->
      let decoded =
        Trace.span tr "serve.decode" (fun () ->
            match Json.parse q.line with
            | Error m -> Error ("parse", m)
            | Ok j -> Serve.Protocol.decode limits j)
      in
      match decoded with
      | Ok (Serve.Protocol.Single { id; job }) ->
          let response =
            Trace.span tr ("serve." ^ Serve.Protocol.job_kind job) (fun () ->
                Serve.Handlers.run_job (Serve.Server.ctx server) ~id job)
          in
          [ Trace.span tr "serve.encode" (fun () -> Json.to_string response) ]
      | _ -> [])

let ms x = 1000. *. x

let record (r : Report.t) (q, responses) =
  Report.op r [ (check_name q.kind, response_ok q.kind responses) ]

let plain_pass s =
  let server = new_server () in
  closed_loop (fun q -> Serve.Server.handle_line server q.line) s.requests

(* A run is a series of rounds, each an open-loop pass and then a
   closed-loop pass over the stream, every pass on a fresh server.  The
   metrics are medians over the rounds, so a pass the machine disturbed
   does not move them: with the latencies of two open-loop passes pooled
   instead, the p50 spread across seeds was 9 %. *)
let untraced s ~seconds (r : Report.t) =
  let rounds =
    Passes.repeat ~seconds ~min:3 (fun _ ->
        let server = new_server () in
        let opened, late = open_loop server s.requests in
        (opened, late, server_stats server, plain_pass s))
  in
  List.iter
    (fun (opened, _, _, (closed, _)) ->
      List.iter (fun (q, resp, _, _) -> record r (q, resp)) opened;
      List.iter (fun (q, resp, _) -> record r (q, resp)) closed)
    rounds;
  let latency (_, _, wait, service) = ms (wait +. service) in
  let per_round f = Stats.median (List.map f rounds) in
  let open_pct q (opened, _, _, _) = Stats.percentile q (List.map latency opened) in
  Report.metric r "p50_ms" (per_round (open_pct 0.5));
  Report.metric r "p99_ms" (per_round (open_pct 0.99));
  let pass_s = per_round (fun (_, _, _, (_, wall)) -> wall) in
  Report.metric r "pass_s" pass_s;
  Report.info r "capacity_rps" (float_of_int (List.length s.requests) /. pass_s) "1/s";
  Report.info r "rate_rps" rate "1/s";
  Report.info r "rounds" (float_of_int (List.length rounds)) "count";
  let all = List.concat_map (fun (opened, _, _, _) -> opened) rounds in
  let pct q f = Stats.percentile q (List.map f all) in
  Report.info r "wait_ms_p99" (pct 0.99 (fun (_, _, w, _) -> ms w)) "ms";
  Report.info r "service_ms_p99" (pct 0.99 (fun (_, _, _, sv) -> ms sv)) "ms";
  Report.info r "generator_late_ms_max"
    (ms (List.fold_left (fun acc (_, late, _, _) -> Float.max acc late) 0. rounds))
    "ms";
  List.iter
    (fun k ->
      let l =
        List.filter_map
          (fun ((q, _, _, _) as x) -> if q.kind = k then Some (latency x) else None)
          all
      in
      Report.info r (kind_name k ^ "_ms_p50") (Stats.percentile 0.5 l) "ms";
      Report.info r (kind_name k ^ "_ms_p99") (Stats.percentile 0.99 l) "ms")
    [ Design; Check; Simulate; Domain ];
  let _, _, st, _ = List.hd rounds in
  List.iter
    (fun k ->
      Report.info r ("memo_" ^ k ^ "_hit_ratio") (stat st [ "cache"; k ^ "_hit_rate" ]) "ratio")
    [ "synth"; "layout"; "verdict" ]

let traced s ~seconds tr (r : Report.t) =
  let stats = ref [] in
  let plain, traced =
    Passes.alternate ~seconds
      ~plain:(fun _ -> plain_pass s)
      ~traced:(fun i ->
        let server = new_server () in
        let first_id = i * List.length s.requests in
        let res =
          Trace.span tr "bench.pass" (fun () ->
              closed_loop (traced_handle tr server ~first_id) s.requests)
        in
        stats := server_stats server :: !stats;
        res)
  in
  List.iter
    (fun (results, _) -> List.iter (fun (q, resp, _) -> record r (q, resp)) results)
    (plain @ traced);
  let per_pass path = Stats.median (List.map (fun st -> stat st path) !stats) in
  List.iter
    (fun k ->
      Report.metric r ("core.memo_" ^ k ^ "_hit_ratio") (per_pass [ "cache"; k ^ "_hit_rate" ]))
    [ "synth"; "layout"; "verdict" ];
  List.iter
    (fun k -> Report.metric r ("sat." ^ k) (per_pass [ "solver"; k ]))
    [ "conflicts"; "decisions"; "propagations" ];
  let solve_s = per_pass [ "solver"; "solve_time_s" ] in
  Report.metric r "sat.props_per_s"
    (if solve_s > 0. then per_pass [ "solver"; "propagations" ] /. solve_s else 0.);
  Report.metric r "trace.overhead_frac"
    (Passes.overhead ~plain_s:(List.map snd plain) ~traced_s:(List.map snd traced));
  (* Per-span latency percentiles: [Handlers.run_job] by job kind, and
     the protocol's decode and encode steps. *)
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun (sp : Trace.span) ->
      if String.starts_with ~prefix:"serve." sp.name then
        Hashtbl.replace by_name sp.name
          (ms (sp.stop -. sp.start)
          :: Option.value (Hashtbl.find_opt by_name sp.name) ~default:[]))
    (Trace.spans tr);
  Hashtbl.fold (fun name l acc -> (name, l) :: acc) by_name []
  |> List.sort compare
  |> List.iter (fun (name, l) ->
         Report.info r (name ^ "_ms_p50") (Stats.percentile 0.5 l) "ms";
         Report.info r (name ^ "_ms_p99") (Stats.percentile 0.99 l) "ms")

let prepare ?(rate = rate) ?n ~seed ~seconds () =
  (* A quarter of the run's worth of requests: three or four rounds fit
     the run, and at 20 s each open-loop pass (1000 requests) has 10
     samples beyond its p99. *)
  let n =
    match n with
    | Some n -> n
    | None -> max 1 (int_of_float (rate *. seconds /. 4.))
  in
  let s = stream ~rate ~seed ~n in
  (* Warm-up on a throwaway server, with inputs outside the stream. *)
  let warm = new_server () in
  List.iteri
    (fun id fields -> ignore (Serve.Server.handle_line warm (request_line ~id fields)))
    [
      [ ("kind", Json.Str "design"); ("benchmark", Json.Str "xor2") ];
      [ ("kind", Json.Str "simulate"); ("gate", Json.Str "or2") ];
      [ ("kind", Json.Str "domain"); ("gate", Json.Str "and2"); ("steps", Json.Num 4.) ];
    ];
  fun ~trace r ->
    Report.info r "requests" (float_of_int n) "count";
    Report.info r "repeated_share" s.repeated_share "ratio";
    match trace with
    | None -> untraced s ~seconds r
    | Some tr -> traced s ~seconds tr r
