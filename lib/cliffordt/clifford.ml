(** The 24 single-qubit Clifford operators modulo global phase, each with
    a cheapest generating word (cost = number of non-Pauli gates, then
    word length; Pauli gates are free in the error-corrected setting). *)

type element = { index : int; u : Exact_u.t; word : Ctgate.t list }

let generators = Ctgate.[ H; S; Sdg; X; Y; Z ]

let cost word =
  let nonpauli = List.length (List.filter (fun g -> not (Ctgate.is_pauli g)) word) in
  (nonpauli, List.length word)

(* The closure below keeps the first word it meets among equally cheap
   ones, so which word it picks depends on the order its table iterates
   in.  That order is fixed here by hashing the keys with [Hashtbl.hash],
   which is what picked the published words; the step-0 table's key
   hash may change without moving them, or any entry built on them. *)
module Closure_table = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash = Hashtbl.hash
end)

(* Dijkstra-style closure over the (tiny) Clifford group. *)
let elements : element array =
  let table : (Ctgate.t list * Exact_u.t) Closure_table.t = Closure_table.create 64 in
  Closure_table.replace table (Exact_u.canonical_key Exact_u.identity) ([], Exact_u.identity);
  let changed = ref true in
  while !changed do
    changed := false;
    let current = Closure_table.fold (fun _ v acc -> v :: acc) table [] in
    List.iter
      (fun (word, u) ->
        List.iter
          (fun g ->
            let u' = Exact_u.mul_gate u g in
            let word' = word @ [ g ] in
            let k = Exact_u.canonical_key u' in
            match Closure_table.find_opt table k with
            | Some (existing, _) when cost existing <= cost word' -> ()
            | _ ->
                Closure_table.replace table k (word', u');
                changed := true)
          generators)
      current
  done;
  let all = Closure_table.fold (fun _ (word, u) acc -> (word, u) :: acc) table [] in
  assert (List.length all = 24);
  let sorted = List.sort (fun (w1, _) (w2, _) -> compare (cost w1, w1) (cost w2, w2)) all in
  Array.of_list (List.mapi (fun index (word, u) -> { index; u; word }) sorted)

let count = Array.length elements
let keys = Array.map (fun e -> Exact_u.canonical_key e.u) elements

let find_up_to_phase u =
  let k = Exact_u.canonical_key u in
  let rec go i =
    if i >= count then None else if keys.(i) = k then Some elements.(i) else go (i + 1)
  in
  go 0

let is_clifford_up_to_phase u = find_up_to_phase u <> None
