(** Per-site tensor data for TRASYN's MPS: the physical index ranges
    over the step-0 table entries within a T-count range.

    A bank is a slice of the table, not a copy: physical index [s] is
    table entry [first + s], for [s ∈ [0, count)], and its 2×2 matrix
    sits row-major at [(first + s)·4 .. (first + s)·4 + 3] of the
    table's [re]/[im] planes, which the sampler's hot loops read
    directly. *)

type t = private {
  table : Ma_table.t;
  first : int;  (** table entry of physical index 0 *)
  count : int;
}

val of_table : Ma_table.t -> lo:int -> hi:int -> t
(** The entries with T count in [[lo, hi]] ([hi] clamped to the table's
    depth): they are contiguous, since the table sorts by T count. *)

val matrix : t -> int -> Mat2.t
val sequence : t -> int -> Ctgate.t list

val tcount : t -> int -> int
(** The accessors take a physical index and raise [Invalid_argument]
    outside [[0, count)]. *)
