(* Output checks against references that do not go through the
   compiler: a re-parse and recount of every written QASM file, an
   independent 2x2 re-multiplication of every served word, and a
   statevector comparison of small compiled circuits with their
   inputs. *)

type counts = { gates : int; t : int; cliffords : int }

(* Clifford+T as the compiler's reports count it: T/T† are the T
   gates; H, S, S†, CX, CZ and SWAP the counted Cliffords; Paulis are
   free.  Anything else (a rotation, a Toffoli) is not Clifford+T. *)
let classify (g : Qgate.t) =
  match g with
  | T | Tdg -> `T
  | H | S | Sdg | CX | CZ | Swap -> `Clifford
  | X | Y | Z -> `Pauli
  | Rx _ | Ry _ | Rz _ | U3 _ | Ccx -> `Not_clifford_t

(* Re-parse [path] through the incremental reader and recount it. *)
let recount path =
  In_channel.with_open_bin path @@ fun ic ->
  let s = Qasm_reader.stream_of_channel ~file:path ic in
  let gates = ref 0 and t = ref 0 and cl = ref 0 and bad = ref None in
  let rec loop () =
    match Qasm_reader.next_event s with
    | None -> ()
    | Some (Qasm_reader.Qreg _) -> loop ()
    | Some (Qasm_reader.Instr i) ->
        incr gates;
        (match classify i.Circuit.gate with
        | `T -> incr t
        | `Clifford -> incr cl
        | `Pauli -> ()
        | `Not_clifford_t ->
            if !bad = None then
              bad := Some (Printf.sprintf "%s line %d: %s is not Clifford+T" path
                             (Qasm_reader.stream_line s) (Qgate.to_string i.Circuit.gate)));
        loop ()
  in
  match loop () with
  | () -> ( match !bad with Some e -> Error e | None -> Ok { gates = !gates; t = !t; cliffords = !cl })
  | exception Qasm_reader.Parse_error (f, l, c, m) ->
      Error (Printf.sprintf "%s:%d:%d: output does not parse back: %s" f l c m)

let expect_counts ~what (got : counts) (reported : counts) =
  if got = reported then Ok ()
  else
    Error
      (Printf.sprintf "%s: recount gates=%d T=%d Cliffords=%d, report says gates=%d T=%d Cliffords=%d"
         what got.gates got.t got.cliffords reported.gates reported.t reported.cliffords)

(* ---- words: plain 2x2 complex arithmetic, matrix order ---- *)

type c = { re : float; im : float }

let cmul a b = { re = (a.re *. b.re) -. (a.im *. b.im); im = (a.re *. b.im) +. (a.im *. b.re) }
let cadd a b = { re = a.re +. b.re; im = a.im +. b.im }
let c re im = { re; im }

(* Row-major [| m00; m01; m10; m11 |]. *)
let mul m n =
  [|
    cadd (cmul m.(0) n.(0)) (cmul m.(1) n.(2));
    cadd (cmul m.(0) n.(1)) (cmul m.(1) n.(3));
    cadd (cmul m.(2) n.(0)) (cmul m.(3) n.(2));
    cadd (cmul m.(2) n.(1)) (cmul m.(3) n.(3));
  |]

let r = 1.0 /. sqrt 2.0
let z0 = c 0.0 0.0

(* The server's one-letter alphabet: S† is 's', T† is 't'. *)
let letter = function
  | 'H' -> Some [| c r 0.0; c r 0.0; c r 0.0; c (-.r) 0.0 |]
  | 'S' -> Some [| c 1.0 0.0; z0; z0; c 0.0 1.0 |]
  | 's' -> Some [| c 1.0 0.0; z0; z0; c 0.0 (-1.0) |]
  | 'T' -> Some [| c 1.0 0.0; z0; z0; c r r |]
  | 't' -> Some [| c 1.0 0.0; z0; z0; c r (-.r) |]
  | 'X' -> Some [| z0; c 1.0 0.0; c 1.0 0.0; z0 |]
  | 'Y' -> Some [| z0; c 0.0 (-1.0); c 0.0 1.0; z0 |]
  | 'Z' -> Some [| c 1.0 0.0; z0; z0; c (-1.0) 0.0 |]
  | _ -> None

let word_matrix w =
  String.fold_left
    (fun acc ch ->
      match (acc, letter ch) with
      | Ok m, Some g -> Ok (mul m g)
      | Ok _, None -> Error (Printf.sprintf "letter %C is not in the Clifford+T alphabet" ch)
      | (Error _ as e), _ -> e)
    (Ok [| c 1.0 0.0; z0; z0; c 1.0 0.0 |])
    w

(* D(U,V) = sqrt(1 - (|Tr(U^dagger V)|/2)^2) against Rz(theta) =
   diag(e^{-i theta/2}, e^{i theta/2}); invariant under global phase. *)
let rz_distance theta m =
  let a = c (cos (theta /. 2.0)) (sin (theta /. 2.0)) (* conj e^{-i theta/2} *)
  and b = c (cos (theta /. 2.0)) (-.sin (theta /. 2.0)) in
  let tr = cadd (cmul a m.(0)) (cmul b m.(3)) in
  let v = Float.hypot tr.re tr.im /. 2.0 in
  sqrt (Float.max 0.0 (1.0 -. (v *. v)))

let t_letters w = String.fold_left (fun n ch -> if ch = 'T' || ch = 't' then n + 1 else n) 0 w

(* Tolerance for the distance formula's sqrt(ulp) floor near zero. *)
let distance_tol = 1e-6

let check_rz_word ~theta ~epsilon ~word ~distance ~t_count =
  match word_matrix word with
  | Error e -> Error e
  | Ok m ->
      let d = rz_distance theta m in
      if d > distance +. distance_tol then
        Error (Printf.sprintf "rz(%.17g): word re-multiplies to distance %.3g, reported %.3g" theta d distance)
      else if distance > epsilon then
        Error (Printf.sprintf "rz(%.17g): reported distance %.3g exceeds the requested %.3g" theta distance epsilon)
      else if t_letters word <> t_count then
        Error (Printf.sprintf "rz(%.17g): word has %d T letters, reported t_count %d" theta (t_letters word) t_count)
      else Ok ()

(* ---- circuits: statevector comparison ---- *)

let random_state ~seed n =
  let rng = Random.State.make [| seed; n; 7919 |] in
  let st = State.zero_state n in
  let dim = State.dim st in
  let norm = ref 0.0 in
  for k = 0 to dim - 1 do
    let x = Random.State.float rng 2.0 -. 1.0 and y = Random.State.float rng 2.0 -. 1.0 in
    st.State.re.(k) <- x;
    st.State.im.(k) <- y;
    norm := !norm +. (x *. x) +. (y *. y)
  done;
  let s = 1.0 /. sqrt !norm in
  for k = 0 to dim - 1 do
    st.State.re.(k) <- st.State.re.(k) *. s;
    st.State.im.(k) <- st.State.im.(k) *. s
  done;
  st

(* Phase-insensitive state distance min_phi |a - e^{i phi} b|. *)
let state_distance a b =
  let o = State.overlap a b in
  sqrt (Float.max 0.0 (2.0 -. (2.0 *. Cplx.norm o)))

(* The summed per-rotation distance D bounds the circuit's operator
   distance up to the D -> 2 sin(asin(D)/2) conversion (< 0.1% at the
   distances used here) and the 4-decimal rounding of the report. *)
let bound_of_synth_err e = (e *. 1.001) +. 5e-5

let max_sim_qubits = 10

(* [state_distance] never exceeds sqrt 2, so a bound at or above it
   tests nothing: such outputs are skipped ([Ok false]), not passed. *)
let vacuous_bound = sqrt 2.0

let check_circuit ~seed ~name ~(input : Circuit.t) ~(output : Circuit.t) ~synth_err =
  let bound = bound_of_synth_err synth_err in
  if input.Circuit.n_qubits > max_sim_qubits || bound >= vacuous_bound then Ok false
  else if output.Circuit.n_qubits <> input.Circuit.n_qubits then
    Error (Printf.sprintf "%s: output has %d qubits, input %d" name output.Circuit.n_qubits input.Circuit.n_qubits)
  else
    let a = random_state ~seed input.Circuit.n_qubits in
    let b = State.copy a in
    State.apply_circuit a input;
    State.apply_circuit b output;
    let d = state_distance a b in
    if d <= bound then Ok true
    else Error (Printf.sprintf "%s: compiled circuit is %.4g from its input, summed synthesis error allows %.4g" name d bound)
