(** Exact single-qubit Clifford+T unitaries: (1/√2^k)·[[a,b],[c,d]] with
    entries in Z[ω] and k minimal.  Equality up to the 8 global phases
    ω^j is decided by a canonical key, which is what backs the step-0
    table and the peephole lookups — no float tolerance anywhere.

    The products, the √2 reduction and the key work on the int fields
    of {!O.t} directly rather than through the [Zomega.Make] functor:
    without flambda every functor-level int operation is an indirect
    call, and the table build and the step-3 peephole multiply millions
    of matrices.  Integer arithmetic is exact, so the results are the
    functor's bit for bit; the generic functor stays for [Zomega.Big]. *)

module O = Zomega.Native

type t = { a : O.t; b : O.t; c : O.t; d : O.t; k : int }

val make : a:O.t -> b:O.t -> c:O.t -> d:O.t -> k:int -> t
(** Reduces the representation so [k] is minimal. *)

val identity : t
val mul : t -> t -> t

val mul_gate : t -> Ctgate.t -> t
(** [mul_gate u g] is [mul u (of_gate g)], without the general product:
    T, S, Z and their inverses scale a column by a power of ω, X and Y
    swap the columns, and H adds and subtracts them. *)

val adjoint : t -> t

val mul_phase : t -> int -> t
(** Multiply by ω^j. *)

(** Exact gate constants. *)

val gate_h : t
val gate_t : t
val gate_tdg : t
val gate_s : t
val gate_sdg : t
val gate_x : t
val gate_y : t
val gate_z : t
val of_gate : Ctgate.t -> t

val of_seq : Ctgate.t list -> t
(** Exact product of a word (matrix order). *)

val to_mat2 : t -> Mat2.t

val write_planes : t -> float array -> float array -> int -> unit
(** [write_planes u re im off] writes the entries of [to_mat2 u],
    row-major, to [re.(off .. off + 3)] and [im.(off .. off + 3)]: the
    same float operations in the same order, so the bits agree. *)

val key : t -> int array
(** Flat integer encoding (coefficients stay small at table depths). *)

val key_width : int
(** 17: the denominator exponent, then the 16 integer coefficients. *)

val canonical_key : t -> int array
(** The lexicographically smallest {!key} among the eight phase
    multiples ω^j·U: equal for two operators exactly when they agree up
    to a global phase.  Read off the coefficients of U without building
    the multiples, so the only allocation is the key itself. *)

val canonical_key_into : t -> int array -> int -> unit
(** [canonical_key_into u dst off] writes [canonical_key u] to
    [dst.(off .. off + key_width − 1)] without allocating. *)

val hash_key : int array -> int -> int
(** Hash of the {!key_width} ints at an offset; reads all of them, and
    keys that differ in a single int never share a hash. *)

val equal : t -> t -> bool
val equal_up_to_phase : t -> t -> bool

val sde : t -> int
(** The denominator exponent of the reduced form. *)

val to_string : t -> string
