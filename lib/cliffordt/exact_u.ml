(** Exact single-qubit Clifford+T unitaries.

    A Clifford+T operator is exactly (1/√2^k) · [[a, b], [c, d]] with
    a, b, c, d ∈ Z[ω].  We keep the representation reduced (k minimal)
    and provide a canonical form modulo the 8 global phases ω^j, which
    is what "unique up to a global phase" means for this gate set
    (Matsumoto–Amano; the paper's 24·(3·2^#T − 2) count is the
    phase-free count). *)

module O = Zomega.Native

type t = { a : O.t; b : O.t; c : O.t; d : O.t; k : int }

let map2 f u = { u with a = f u.a; b = f u.b; c = f u.c; d = f u.d }

(* The kernels below work on the int fields of [O.t] directly.  Going
   through the [Zomega.Make] functor turns every int add and multiply
   into an indirect call (there is no flambda to inline them), and the
   table build and the peephole multiply millions of matrices.  Integer
   arithmetic is exact, so the results are the functor's bit for bit. *)

let zadd (x : O.t) (y : O.t) : O.t =
  { x0 = x.x0 + y.x0; x1 = x.x1 + y.x1; x2 = x.x2 + y.x2; x3 = x.x3 + y.x3 }

let zsub (x : O.t) (y : O.t) : O.t =
  { x0 = x.x0 - y.x0; x1 = x.x1 - y.x1; x2 = x.x2 - y.x2; x3 = x.x3 - y.x3 }

let zneg (x : O.t) : O.t = { x0 = -x.x0; x1 = -x.x1; x2 = -x.x2; x3 = -x.x3 }

(* x·y + z·w, the convolution modulo ω⁴ = −1 written out once. *)
let zdot (x : O.t) (y : O.t) (z : O.t) (w : O.t) : O.t =
  {
    x0 = (x.x0 * y.x0) - (x.x1 * y.x3) - (x.x2 * y.x2) - (x.x3 * y.x1)
         + (z.x0 * w.x0) - (z.x1 * w.x3) - (z.x2 * w.x2) - (z.x3 * w.x1);
    x1 = (x.x0 * y.x1) + (x.x1 * y.x0) - (x.x2 * y.x3) - (x.x3 * y.x2)
         + (z.x0 * w.x1) + (z.x1 * w.x0) - (z.x2 * w.x3) - (z.x3 * w.x2);
    x2 = (x.x0 * y.x2) + (x.x1 * y.x1) + (x.x2 * y.x0) - (x.x3 * y.x3)
         + (z.x0 * w.x2) + (z.x1 * w.x1) + (z.x2 * w.x0) - (z.x3 * w.x3);
    x3 = (x.x0 * y.x3) + (x.x1 * y.x2) + (x.x2 * y.x1) + (x.x3 * y.x0)
         + (z.x0 * w.x3) + (z.x1 * w.x2) + (z.x2 * w.x1) + (z.x3 * w.x0);
  }

(* Multiplication by ω^j for j in 1..7. *)
let zomega (x : O.t) j : O.t =
  match j with
  | 1 -> { x0 = -x.x3; x1 = x.x0; x2 = x.x1; x3 = x.x2 }
  | 2 -> { x0 = -x.x2; x1 = -x.x3; x2 = x.x0; x3 = x.x1 }
  | 6 -> { x0 = x.x2; x1 = x.x3; x2 = -x.x0; x3 = -x.x1 }
  | 7 -> { x0 = x.x1; x1 = x.x2; x2 = x.x3; x3 = -x.x0 }
  | j -> O.mul_omega_pow x j

(* x·√2 = (x1 − x3) + (x0 + x2)ω + (x1 + x3)ω² + (x2 − x0)ω³, which has
   even coordinates exactly when x0 ≡ x2 and x1 ≡ x3 (mod 2). *)
let sqrt2_divides (x : O.t) = (x.x0 - x.x2) land 1 = 0 && (x.x1 - x.x3) land 1 = 0

let zdiv_sqrt2 (x : O.t) : O.t =
  {
    x0 = (x.x1 - x.x3) asr 1;
    x1 = (x.x0 + x.x2) asr 1;
    x2 = (x.x1 + x.x3) asr 1;
    x3 = (x.x2 - x.x0) asr 1;
  }

(* Reduce so that k is minimal (entries not all divisible by √2). *)
let rec reduce u =
  if u.k = 0 then u
  else if sqrt2_divides u.a && sqrt2_divides u.b && sqrt2_divides u.c && sqrt2_divides u.d then
    let a = zdiv_sqrt2 u.a and b = zdiv_sqrt2 u.b in
    reduce { a; b; c = zdiv_sqrt2 u.c; d = zdiv_sqrt2 u.d; k = u.k - 1 }
  else u

let make ~a ~b ~c ~d ~k = reduce { a; b; c; d; k }
let identity = { a = O.one; b = O.zero; c = O.zero; d = O.one; k = 0 }

let mul u v =
  reduce
    {
      a = zdot u.a v.a u.b v.c;
      b = zdot u.a v.b u.b v.d;
      c = zdot u.c v.a u.d v.c;
      d = zdot u.c v.b u.d v.d;
      k = u.k + v.k;
    }

(* u·G for one gate G: the diagonal gates scale the second column by a
   power of ω, X and Y swap the columns, and only H mixes them. *)
let mul_gate u (g : Ctgate.t) =
  match g with
  | T -> reduce { u with b = zomega u.b 1; d = zomega u.d 1 }
  | Tdg -> reduce { u with b = zomega u.b 7; d = zomega u.d 7 }
  | S -> reduce { u with b = zomega u.b 2; d = zomega u.d 2 }
  | Sdg -> reduce { u with b = zomega u.b 6; d = zomega u.d 6 }
  | Z -> reduce { u with b = zneg u.b; d = zneg u.d }
  | X -> reduce { u with a = u.b; b = u.a; c = u.d; d = u.c }
  | Y ->
      reduce { a = zomega u.b 2; b = zomega u.a 6; c = zomega u.d 2; d = zomega u.c 6; k = u.k }
  | H ->
      reduce { a = zadd u.a u.b; b = zsub u.a u.b; c = zadd u.c u.d; d = zsub u.c u.d; k = u.k + 1 }

let adjoint u =
  reduce { a = O.conj u.a; b = O.conj u.c; c = O.conj u.b; d = O.conj u.d; k = u.k }

let mul_phase u j = map2 (fun x -> O.mul_omega_pow x j) u

(* Gate constants. *)
let gate_h = { a = O.one; b = O.one; c = O.one; d = O.neg O.one; k = 1 }
let gate_t = { a = O.one; b = O.zero; c = O.zero; d = O.omega; k = 0 }
let gate_tdg = { a = O.one; b = O.zero; c = O.zero; d = O.mul_omega_pow O.one 7; k = 0 }
let gate_s = { a = O.one; b = O.zero; c = O.zero; d = O.i; k = 0 }
let gate_sdg = { a = O.one; b = O.zero; c = O.zero; d = O.neg O.i; k = 0 }
let gate_x = { a = O.zero; b = O.one; c = O.one; d = O.zero; k = 0 }
let gate_y = { a = O.zero; b = O.neg O.i; c = O.i; d = O.zero; k = 0 }
let gate_z = { a = O.one; b = O.zero; c = O.zero; d = O.neg O.one; k = 0 }

let of_gate = function
  | Ctgate.H -> gate_h
  | Ctgate.S -> gate_s
  | Ctgate.Sdg -> gate_sdg
  | Ctgate.T -> gate_t
  | Ctgate.Tdg -> gate_tdg
  | Ctgate.X -> gate_x
  | Ctgate.Y -> gate_y
  | Ctgate.Z -> gate_z

let of_seq seq = List.fold_left mul_gate identity seq

(* [Zomega.Native.to_complex] with the same float operations in the same
   order, so the matrices are bit-identical.  [to_mat2] and
   [write_planes] share these, so a table's float planes hold exactly
   the entries of [to_mat2]. *)
let inv_sqrt2 = 1.0 /. Float.sqrt 2.0
let scale u = Float.pow (Float.sqrt 2.0) (float_of_int (-u.k))
let entry_re s (z : O.t) =
  s *. (float_of_int z.x0 +. ((float_of_int z.x1 -. float_of_int z.x3) *. inv_sqrt2))

let entry_im s (z : O.t) =
  s *. (float_of_int z.x2 +. ((float_of_int z.x1 +. float_of_int z.x3) *. inv_sqrt2))

let to_mat2 u =
  let s = scale u in
  let conv z = { Cplx.re = entry_re s z; im = entry_im s z } in
  Mat2.make (conv u.a) (conv u.b) (conv u.c) (conv u.d)

let write_planes u re im off =
  let s = scale u in
  let put j z =
    re.(off + j) <- entry_re s z;
    im.(off + j) <- entry_im s z
  in
  put 0 u.a;
  put 1 u.b;
  put 2 u.c;
  put 3 u.d

(* A flat integer key; coefficient magnitudes stay tiny for the T
   budgets the tables use, so native ints are safe. *)
let key u =
  [|
    u.k;
    u.a.x0; u.a.x1; u.a.x2; u.a.x3;
    u.b.x0; u.b.x1; u.b.x2; u.b.x3;
    u.c.x0; u.c.x1; u.c.x2; u.c.x3;
    u.d.x0; u.d.x1; u.d.x2; u.d.x3;
  |]

let key_width = 17

(* Entry [e] (0..15, after k) of [key (mul_phase u j)], read off the
   raw key of [u] at [off] without building the phase multiple.
   Coefficient p of ω^j·x is x_{(p−j) mod 4}, negated when p − j wraps
   around once (ω⁴ = −1) and not when it wraps twice (ω⁸ = 1). *)
let phase_entry key off j e =
  let m = (e land 3) - j + 8 in
  let v = key.(off + 1 + (e land 12) + (m land 3)) in
  if m lsr 2 = 1 then -v else v

(* Lexicographic comparison of the keys of ω^i·u and ω^j·u (their k
   entries agree). *)
let rec compare_phases key off i j e =
  if e = 16 then 0
  else
    let c = Int.compare (phase_entry key off i e) (phase_entry key off j e) in
    if c <> 0 then c else compare_phases key off i j (e + 1)

let rec min_phase key off best j =
  if j = 8 then best
  else min_phase key off (if compare_phases key off j best 0 < 0 then j else best) (j + 1)

(* The smallest key over the eight phase multiples ω^j·U: the one key
   the step-0 table, its lookups and the Clifford group are filed
   under.  The raw key is written to [dst] at [off], the winning phase
   is read off it, and each entry's four coefficients are then rotated
   into place. *)
let canonical_key_into u dst off =
  let put e (x : O.t) =
    dst.(off + e) <- x.x0;
    dst.(off + e + 1) <- x.x1;
    dst.(off + e + 2) <- x.x2;
    dst.(off + e + 3) <- x.x3
  in
  dst.(off) <- u.k;
  put 1 u.a;
  put 5 u.b;
  put 9 u.c;
  put 13 u.d;
  let j = min_phase dst off 0 1 in
  if j > 0 then
    for g = 0 to 3 do
      let b = off + 1 + (4 * g) in
      let x0 = dst.(b) and x1 = dst.(b + 1) and x2 = dst.(b + 2) and x3 = dst.(b + 3) in
      for p = 0 to 3 do
        let m = p - j + 8 in
        let v = match m land 3 with 0 -> x0 | 1 -> x1 | 2 -> x2 | _ -> x3 in
        dst.(b + p) <- (if m lsr 2 = 1 then -v else v)
      done
    done

let canonical_key u =
  let key = Array.make key_width 0 in
  canonical_key_into u key 0;
  key

let equal u v = key u = key v
let equal_up_to_phase u v = canonical_key u = canonical_key v

(* FNV-1a over the 17 ints, then an xor-shift-multiply finalizer so the
   low bits an open-addressing index masks with depend on every bit of
   every int.  Each step is a bijection of the 63-bit int, so two keys
   that differ in one int never share a hash. *)
let hash_key (key : int array) off =
  let h = ref 0 in
  for e = off to off + key_width - 1 do
    h := (!h lxor key.(e)) * 0x100000001b3
  done;
  let h = !h lxor (!h lsr 32) in
  let h = h * 0x2545f4914f6cdd1d in
  h lxor (h lsr 29)

(* T-count parity invariant: the smallest denominator exponent grows with
   T gates; used only for sanity checks. *)
let sde u = u.k

let to_string u =
  Printf.sprintf "1/sqrt2^%d [[%s, %s], [%s, %s]]" u.k (O.to_string u.a) (O.to_string u.b)
    (O.to_string u.c) (O.to_string u.d)
