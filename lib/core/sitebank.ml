(** Per-site tensor data for TRASYN's MPS.

    A site's physical index ranges over all canonical Clifford+T
    operators within a T-count range (step 0's table).  The table sorts
    by T count, so that range is one contiguous run of entries, and the
    bank is that run: the sampler reads the matrices straight from the
    table's flat float planes (row-major, 4 complex entries per
    index). *)

type t = { table : Ma_table.t; first : int; count : int }

(* A site covering T counts lo..hi of the given table. *)
let of_table (table : Ma_table.t) ~lo ~hi =
  let hi = min hi table.Ma_table.max_t in
  let first = table.Ma_table.offsets.(lo) in
  { table; first; count = table.Ma_table.offsets.(hi + 1) - first }

(* One shared counter for all three accessors: they are the bank's only
   read path, so this is "how often did synthesis consult a sitebank".
   An atomic add is noise next to the float work per lookup. *)
let c_lookups = Obs.counter "sitebank.lookups"

let entry bank s =
  Obs.incr c_lookups;
  if s < 0 || s >= bank.count then invalid_arg "Sitebank: physical index out of range";
  bank.first + s

let matrix bank s = Ma_table.mat bank.table (entry bank s)
let sequence bank s = Ma_table.word bank.table (entry bank s)
let tcount bank s = Ma_table.tcount bank.table (entry bank s)
