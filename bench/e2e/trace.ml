type span = {
  id : int;
  name : string;
  start : float;
  stop : float;
  parent : int;
  request_id : int;
}

type frame = {
  f_id : int;
  f_start : float;
  f_request : int;
  mutable child : float;  (* time covered by completed child spans *)
}

type t = {
  now : unit -> float;
  mutable next_id : int;
  mutable stack : frame list;
  mutable finished : span list;  (* most recent first *)
  self : (string, float) Hashtbl.t;
  counters : (string, float) Hashtbl.t;
  mutable roots : float;
}

let create ~now =
  {
    now;
    next_id = 0;
    stack = [];
    finished = [];
    self = Hashtbl.create 32;
    counters = Hashtbl.create 32;
    roots = 0.;
  }

let add tbl key v =
  Hashtbl.replace tbl key (v +. Option.value (Hashtbl.find_opt tbl key) ~default:0.)

let span t ?request_id name f =
  let parent, inherited =
    match t.stack with fr :: _ -> (fr.f_id, fr.f_request) | [] -> (-1, -1)
  in
  let request_id = Option.value request_id ~default:inherited in
  let id = t.next_id in
  t.next_id <- id + 1;
  let fr = { f_id = id; f_start = t.now (); f_request = request_id; child = 0. } in
  t.stack <- fr :: t.stack;
  let finish () =
    let stop = t.now () in
    let dur = stop -. fr.f_start in
    t.stack <- List.tl t.stack;
    (match t.stack with
    | p :: _ -> p.child <- p.child +. dur
    | [] -> t.roots <- t.roots +. dur);
    add t.self name (dur -. fr.child);
    t.finished <-
      { id; name; start = fr.f_start; stop; parent; request_id } :: t.finished
  in
  Fun.protect ~finally:finish f

let count t name v = add t.counters name v
let counter t name = Option.value (Hashtbl.find_opt t.counters name) ~default:0.

let spans t = List.sort (fun a b -> compare a.id b.id) t.finished
let root_time t = t.roots

let self_times t =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.self []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_chrome_json t =
  let spans = spans t in
  let origin = match spans with s :: _ -> s.start | [] -> 0. in
  let us x = (x -. origin) *. 1e6 in
  let layer name =
    match String.index_opt name '.' with
    | Some i -> String.sub name 0 i
    | None -> name
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        "{\"name\":%S,\"cat\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"request_id\":%d}}"
        s.name (layer s.name) (us s.start) (us s.stop -. us s.start) s.id
        s.parent s.request_id)
    spans;
  Buffer.add_string b "]}\n";
  Buffer.contents b
