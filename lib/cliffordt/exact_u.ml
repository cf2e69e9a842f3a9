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
   order, so the matrices are bit-identical. *)
let inv_sqrt2 = 1.0 /. Float.sqrt 2.0

let to_mat2 u =
  let s = Float.pow (Float.sqrt 2.0) (float_of_int (-u.k)) in
  let conv (z : O.t) =
    let re = float_of_int z.x0 +. ((float_of_int z.x1 -. float_of_int z.x3) *. inv_sqrt2) in
    let im = float_of_int z.x2 +. ((float_of_int z.x1 +. float_of_int z.x3) *. inv_sqrt2) in
    { Cplx.re = s *. re; im = s *. im }
  in
  Mat2.make (conv u.a) (conv u.b) (conv u.c) (conv u.d)

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

(* Entry [e] (0..15, after k) of [key (mul_phase u j)], read off [u]
   without building the phase multiple.  Coefficient p of ω^j·x is
   x_{(p−j) mod 4}, negated when p − j wraps around once (ω⁴ = −1) and
   not when it wraps twice (ω⁸ = 1). *)
let phase_entry u j e =
  let x = match e lsr 2 with 0 -> u.a | 1 -> u.b | 2 -> u.c | _ -> u.d in
  let m = (e land 3) - j + 8 in
  let v = match m land 3 with 0 -> x.O.x0 | 1 -> x.x1 | 2 -> x.x2 | _ -> x.x3 in
  if m lsr 2 = 1 then -v else v

(* Lexicographic comparison of the keys of ω^i·u and ω^j·u (their k
   entries agree). *)
let rec compare_phases u i j e =
  if e = 16 then 0
  else
    let c = Int.compare (phase_entry u i e) (phase_entry u j e) in
    if c <> 0 then c else compare_phases u i j (e + 1)

let rec min_phase u best j =
  if j = 8 then best
  else min_phase u (if compare_phases u j best 0 < 0 then j else best) (j + 1)

(* The smallest key over the eight phase multiples ω^j·U: the one key
   the step-0 table, its lookups and the Clifford group are filed
   under.  Only the winning key is allocated. *)
let canonical_key u =
  let j = min_phase u 0 1 in
  let key = Array.make 17 u.k in
  for e = 0 to 15 do
    key.(e + 1) <- phase_entry u j e
  done;
  key

let equal u v = key u = key v
let equal_up_to_phase u v = canonical_key u = canonical_key v

(* [Hashtbl.hash] reads only the first 10 ints of a key.  Here all 17
   ints count as meaningful, and the traversal may visit 18 values: the
   array block and its 17 fields. *)
let hash_key (k : int array) = Hashtbl.hash_param 17 18 k
let hash u = hash_key (key u)

(* T-count parity invariant: the smallest denominator exponent grows with
   T gates; used only for sanity checks. *)
let sde u = u.k

let to_string u =
  Printf.sprintf "1/sqrt2^%d [[%s, %s], [%s, %s]]" u.k (O.to_string u.a) (O.to_string u.b)
    (O.to_string u.c) (O.to_string u.d)

module Key = struct
  type nonrec t = int array

  let equal = ( = )
  let hash = hash_key
end

module Table = Hashtbl.Make (Key)
