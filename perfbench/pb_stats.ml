(* Order statistics over the benchmark's own samples.  Quantiles are
   exact (nearest rank over the sorted samples), never histogram
   buckets, and a tail quantile is only reported when enough samples
   lie beyond it to mean something. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let median a =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Samples needed above a quantile before it is reported. *)
let min_beyond = 10

(* Nearest-rank quantile: the smallest sample with at least a [q] share
   of the samples at or below it.  [None] when fewer than [min_beyond]
   samples lie above that rank. *)
let quantile q a =
  let s = sorted a in
  let n = Array.length s in
  (* The epsilon keeps 0.99 *. 1000. from rounding up to rank 991. *)
  let rank = max 1 (int_of_float (Float.ceil ((q *. float_of_int n) -. 1e-9))) in
  if n = 0 || n - rank < min_beyond then None else Some s.(rank - 1)

