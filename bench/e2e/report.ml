(* What one workload run hands back to [e2e.ml]: operation
   counts, check tallies, metrics, and workload-specific detail. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  tallies : (string, int * int) Hashtbl.t;  (* check -> (passed, failed) *)
  mutable metrics : (string * float) list;
  mutable info : (string * float * string) list;  (* name, value, unit *)
}

let create () =
  {
    attempted = 0;
    failed = 0;
    tallies = Hashtbl.create 16;
    metrics = [];
    info = [];
  }

let tally r name ok =
  let p, f = Option.value (Hashtbl.find_opt r.tallies name) ~default:(0, 0) in
  Hashtbl.replace r.tallies name (if ok then (p + 1, f) else (p, f + 1))

(* One operation attempted, with the checks of its output; it failed if
   any check did. *)
let op r checks =
  r.attempted <- r.attempted + 1;
  List.iter (fun (name, ok) -> tally r name ok) checks;
  if List.exists (fun (_, ok) -> not ok) checks then r.failed <- r.failed + 1

(* A check on the run as a whole counts as one more operation. *)
let check r name ok = op r [ (name, ok) ]

let checks r =
  Hashtbl.fold (fun name (p, f) acc -> (name, p, f) :: acc) r.tallies []
  |> List.sort compare

let metric r name v = r.metrics <- (name, v) :: r.metrics
let info r name v unit = r.info <- (name, v, unit) :: r.info
