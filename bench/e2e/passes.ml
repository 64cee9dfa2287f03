(* Pass scheduling shared by the workloads. *)

let timed f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

(* Call [f 0], [f 1], ... until at least [min] passes ran and [seconds]
   have elapsed. *)
let repeat ~seconds ~min f =
  let t0 = Clock.now () in
  let rec go i acc =
    if i >= min && Clock.now () -. t0 >= seconds then List.rev acc
    else go (i + 1) (f i :: acc)
  in
  go 0 []

(* A traced run alternates untraced and traced passes over the same
   inputs, so the tracing overhead is measured under the same conditions
   as the traced numbers. *)
let alternate ~seconds ~plain ~traced =
  let runs =
    repeat ~seconds ~min:2 (fun i ->
        if i mod 2 = 0 then Either.Left (plain i) else Either.Right (traced i))
  in
  List.partition_map Fun.id runs

let overhead ~plain_s ~traced_s =
  let p = Stats.median plain_s in
  (Stats.median traced_s -. p) /. p
