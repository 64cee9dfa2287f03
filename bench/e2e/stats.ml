(* Order statistics shared by the workloads and [compare]. *)

let sorted xs = List.sort Float.compare xs

(* Nearest rank: the smallest sample with at least [q] of the samples at
   or below it. *)
let percentile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
      let a = Array.of_list s in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* First and third quartile by Python's [statistics.quantiles(xs, n=4)]
   (the default "exclusive" method), so spreads computed here match the
   ones computed from the same samples elsewhere. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let ld = Array.length a in
  if ld = 0 then (nan, nan)
  else if ld = 1 then (a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

let sum xs = List.fold_left ( +. ) 0. xs
