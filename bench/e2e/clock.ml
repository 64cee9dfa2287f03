(* Seconds on the monotonic clock: every time the benchmark reports comes
   from here, so a wall-clock step cannot land inside a measurement. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Busy-wait until [now () >= t].  The loop compares raw nanoseconds so
   it allocates nothing: a waiting generator must not trigger minor
   collections that the next request would then pay for. *)
let spin_until t =
  let due = Int64.of_float (t *. 1e9) in
  while Monotonic_clock.now () < due do
    ()
  done
