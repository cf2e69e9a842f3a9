(** Step 0 of TRASYN: the table of all Clifford+T operators (up to global
    phase) with at most a given number of T gates, each paired with a
    T-optimal gate sequence.

    Instead of the paper's enumerate-and-deduplicate sweep (O(4^#T) with
    trace-value duplicate checks on a GPU), we enumerate Matsumoto–Amano
    normal forms
        [ε | T] (HT | SHT)* C,   C one of the 24 Cliffords,
    which are in bijection with Clifford+T operators mod phase, so the
    enumeration is linear in the output count 24·(3·2^#T − 2), and the
    sequences produced are T-optimal by construction.  The table doubles
    as step 3's lookup of shorter equivalents.

    Entries live in flat planes indexed by entry number, not in one
    boxed record per entry, so the depth-10 table (73,680 operators) is
    a dozen heap blocks that the build fills in place: no per-entry
    value is allocated, promoted or scanned by the GC. *)

let key_width = Exact_u.key_width

type t = {
  max_t : int;
  count : int;
  keys : int array;
  word_start : int array;
  words : Bytes.t;
  tcounts : int array;
  ccounts : int array;
  re : float array;
  im : float array;
  index : int array;
  offsets : int array;
}

let theoretical_count m = 24 * ((3 * (1 lsl m)) - 2)

(* ---- Filling the planes ---- *)

(* A table under construction: its planes, grown by doubling, with [n]
   entries filled so far and the index kept at load ≤ 1/2.  [count]
   and [offsets] are set by [finish]. *)
type builder = { mutable planes : t; mutable n : int }

let rec pow2_at_least n p = if p >= n then p else pow2_at_least n (2 * p)

let builder ~max_t capacity =
  let capacity = max capacity 1 in
  let planes =
    {
      max_t;
      count = 0;
      keys = Array.make (capacity * key_width) 0;
      word_start = Array.make (capacity + 1) 0;
      words = Bytes.create (capacity * 8);
      tcounts = Array.make capacity 0;
      ccounts = Array.make capacity 0;
      re = Array.make (capacity * 4) 0.0;
      im = Array.make (capacity * 4) 0.0;
      index = Array.make (pow2_at_least (2 * capacity) 16) (-1);
      offsets = [||];
    }
  in
  { planes; n = 0 }

let keys_equal ka ia kb ib =
  let rec go e = e = key_width || (ka.(ia + e) = kb.(ib + e) && go (e + 1)) in
  go 0

(* Whether entry [i] beats entry [j] for the same operator: fewer T,
   then fewer Cliffords, then the shorter word.  On a full tie the
   earlier entry keeps the slot. *)
let better t i j =
  let len x = t.word_start.(x + 1) - t.word_start.(x) in
  let ti = t.tcounts.(i) and tj = t.tcounts.(j) in
  ti < tj
  || ti = tj
     && (t.ccounts.(i) < t.ccounts.(j) || (t.ccounts.(i) = t.ccounts.(j) && len i < len j))

(* Slot of [key] at [off] in the index of [t]: the slot holding an
   entry with that key, or the empty slot (-1) where it would go.
   Linear probing; the index is never full. *)
let probe t key off =
  let mask = Array.length t.index - 1 in
  let rec go slot =
    let j = t.index.(slot) in
    if j < 0 || keys_equal t.keys (j * key_width) key off then slot else go ((slot + 1) land mask)
  in
  go (Exact_u.hash_key key off land mask)

let index_entry t i =
  let slot = probe t t.keys (i * key_width) in
  let j = t.index.(slot) in
  if j < 0 || better t i j then t.index.(slot) <- i

let extend a len fill =
  let a' = Array.make len fill in
  Array.blit a 0 a' 0 (Array.length a);
  a'

let add b word ~tcount ~ccount u =
  let i = b.n in
  if tcount > b.planes.max_t then invalid_arg "Ma_table.add: tcount exceeds max_t";
  if i > 0 && b.planes.tcounts.(i - 1) > tcount then
    invalid_arg "Ma_table.add: entries not sorted by tcount";
  (if i = Array.length b.planes.tcounts then
     let p = b.planes and cap = 2 * i in
     b.planes <-
       {
         p with
         keys = extend p.keys (cap * key_width) 0;
         word_start = extend p.word_start (cap + 1) 0;
         tcounts = extend p.tcounts cap 0;
         ccounts = extend p.ccounts cap 0;
         re = extend p.re (cap * 4) 0.0;
         im = extend p.im (cap * 4) 0.0;
       });
  let start = b.planes.word_start.(i) in
  let stop = start + String.length word in
  if stop > Bytes.length b.planes.words then
    b.planes <- { b.planes with words = Bytes.extend b.planes.words 0 stop };
  let t = b.planes in
  Bytes.blit_string word 0 t.words start (String.length word);
  t.word_start.(i + 1) <- stop;
  t.tcounts.(i) <- tcount;
  t.ccounts.(i) <- ccount;
  Exact_u.canonical_key_into u t.keys (i * key_width);
  Exact_u.write_planes u t.re t.im (i * 4);
  b.n <- i + 1;
  if 2 * b.n <= Array.length t.index then index_entry t i
  else begin
    b.planes <- { t with index = Array.make (2 * Array.length t.index) (-1) };
    for j = 0 to i do
      index_entry b.planes j
    done
  end

let mem b u =
  let key = Exact_u.canonical_key u in
  b.planes.index.(probe b.planes key 0) >= 0

(* [offsets.(k)] is the first entry of T count ≥ k: the first entry of
   T count exactly k, or the next level's offset when level k is
   empty. *)
let finish { planes; n } =
  let offsets = Array.make (planes.max_t + 2) n in
  for i = n - 1 downto 0 do
    offsets.(planes.tcounts.(i)) <- i
  done;
  for k = planes.max_t downto 0 do
    offsets.(k) <- min offsets.(k) offsets.(k + 1)
  done;
  { planes with count = n; offsets }

(* ---- The Matsumoto–Amano enumeration ---- *)

(* All MA prefixes with exactly [k] T gates, as (word, unitary) pairs.
   Level 0 is the empty prefix; level 1 is {T, HT, SHT}; level k+1
   appends a syllable HT or SHT to every level-k prefix. *)
let prefixes_by_level max_t =
  let syllables = Ctgate.[ [ H; T ]; [ S; H; T ] ] in
  let apply (word, u) syl = (word @ syl, List.fold_left Exact_u.mul_gate u syl) in
  let levels = Array.make (max_t + 1) [] in
  levels.(0) <- [ ([], Exact_u.identity) ];
  if max_t >= 1 then
    levels.(1) <-
      ([ Ctgate.T ], Exact_u.gate_t) :: List.map (apply ([], Exact_u.identity)) syllables;
  for k = 2 to max_t do
    levels.(k) <-
      List.concat_map (fun prefix -> List.map (apply prefix) syllables) levels.(k - 1)
  done;
  levels

(* Entry [p·24 + i] is prefix [p] (in level order) followed by Clifford
   [i].  [ccount] is additive over the concatenation, so it is counted
   once per prefix and once per Clifford, not once per entry. *)
let build max_t =
  let cliffords = Clifford.elements in
  let cwords = Array.map (fun (c : Clifford.element) -> Ctgate.seq_to_string c.word) cliffords in
  let cccounts =
    Array.map (fun (c : Clifford.element) -> Ctgate.clifford_count c.word) cliffords
  in
  let prefixes =
    Array.mapi
      (fun k level ->
        List.map
          (fun (word, u) -> (k, Ctgate.seq_to_string word, Ctgate.clifford_count word, u))
          level)
      (prefixes_by_level max_t)
    |> Array.to_list |> List.concat
  in
  let b = builder ~max_t (theoretical_count max_t) in
  List.iter
    (fun (k, prefix, pc, u) ->
      Array.iteri
        (fun i (c : Clifford.element) ->
          add b (prefix ^ cwords.(i)) ~tcount:k ~ccount:(pc + cccounts.(i)) (Exact_u.mul u c.u))
        cliffords)
    prefixes;
  assert (b.n = theoretical_count max_t);
  finish b

(* The planes are shared: entries sort by T count, so depth [m] is the
   first [offsets.(m + 1)] entries.  The shared index may answer an
   entry past that count; such an operator's cheapest realization
   needs more than [m] T gates (the tie rule ranks T count first), so
   [find] reports it absent, exactly as [build m]'s own index would. *)
let truncate table max_t =
  if max_t >= table.max_t then table
  else if max_t < 0 then invalid_arg "Ma_table.truncate: negative depth"
  else
    let offsets = Array.sub table.offsets 0 (max_t + 2) in
    { table with max_t; count = offsets.(max_t + 1); offsets }

(* ---- Reading entries ---- *)

let size table = table.count

let check table i =
  if i < 0 || i >= table.count then invalid_arg "Ma_table: entry index out of range"

let word_string table i =
  check table i;
  let start = table.word_start.(i) in
  Bytes.sub_string table.words start (table.word_start.(i + 1) - start)

let word table i =
  check table i;
  let start = table.word_start.(i) in
  let rec go j acc =
    if j < start then acc else go (j - 1) (Ctgate.of_char (Bytes.unsafe_get table.words j) :: acc)
  in
  go (table.word_start.(i + 1) - 1) []

let word_length table i =
  check table i;
  table.word_start.(i + 1) - table.word_start.(i)

let tcount table i =
  check table i;
  table.tcounts.(i)

let ccount table i =
  check table i;
  table.ccounts.(i)

let mat table i =
  check table i;
  let o = 4 * i in
  let z j = { Cplx.re = table.re.(o + j); im = table.im.(o + j) } in
  Mat2.make (z 0) (z 1) (z 2) (z 3)

let find table u =
  let key = Exact_u.canonical_key u in
  let i = table.index.(probe table key 0) in
  if i >= 0 && i < table.count then Some i else None

let equal a b =
  let n = a.count in
  let same_prefix x y len =
    let rec go i = i = len || (x.(i) = y.(i) && go (i + 1)) in
    go 0
  in
  let same_bits x y len =
    let rec go i =
      i = len || (Int64.bits_of_float x.(i) = Int64.bits_of_float y.(i) && go (i + 1))
    in
    go 0
  in
  a.max_t = b.max_t && n = b.count && a.offsets = b.offsets
  && same_prefix a.keys b.keys (n * key_width)
  && same_prefix a.word_start b.word_start (n + 1)
  && Bytes.equal
       (Bytes.sub a.words 0 a.word_start.(n))
       (Bytes.sub b.words 0 b.word_start.(n))
  && same_prefix a.tcounts b.tcounts n
  && same_prefix a.ccounts b.ccounts n
  && same_bits a.re b.re (4 * n)
  && same_bits a.im b.im (4 * n)

(* ---- Caches ---- *)

(* Tables are expensive to build once max_t grows; share them.  The
   cache is consulted from worker-pool domains, so it is mutex
   -guarded; holding the lock across [build] also means concurrent
   requests for the same depth build the table once, not N times.  A
   shallower depth is cut from any deeper cached table, which shares
   its planes. *)
let cache : (int, t) Hashtbl.t = Hashtbl.create 4
let cache_lock = Mutex.create ()

let locked f =
  Mutex.lock cache_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock cache_lock) f

let get max_t =
  locked (fun () ->
      match Hashtbl.find_opt cache max_t with
      | Some t -> t
      | None ->
          let deeper = Hashtbl.fold (fun m t acc -> if m > max_t then Some t else acc) cache None in
          let t = match deeper with Some d -> truncate d max_t | None -> build max_t in
          Hashtbl.add cache max_t t;
          t)

(* Provided-table registry: tables for non-built-in gate sets arrive
   from outside (generated offline, loaded from disk) and are keyed by
   gate-set name here so the synthesis stack can ask for "the table for
   gate set G at depth m" without knowing where G's table came from.
   Keeping the registry string-keyed in this module (rather than in
   [Gateset]) avoids a dependency cycle: [Gateset]/[Tablegen] sit above
   us and call [provide].  Per gate set we keep the deepest table seen;
   a shallower request is its truncation, which shares its planes. *)
let builtin_gate_set = "cliffordt"
let provided : (string, t) Hashtbl.t = Hashtbl.create 4

let provide ~gate_set table =
  locked (fun () ->
      match Hashtbl.find_opt provided gate_set with
      | Some old when old.max_t > table.max_t -> ()
      | _ -> Hashtbl.replace provided gate_set table)

let provided_sets () =
  locked (fun () ->
      Hashtbl.fold (fun gs t acc -> (gs, t.max_t) :: acc) provided [] |> List.sort compare)

let get_for ~gate_set max_t =
  match locked (fun () -> Hashtbl.find_opt provided gate_set) with
  | Some t when t.max_t >= max_t -> truncate t max_t
  | Some t ->
      failwith
        (Printf.sprintf
           "Ma_table.get_for: table for gate set %S only reaches depth %d (need %d); \
            regenerate it with tablegen at --max-t >= %d"
           gate_set t.max_t max_t max_t)
  | None ->
      if String.equal gate_set builtin_gate_set then get max_t
      else
        let known =
          match provided_sets () with
          | [] -> "none"
          | sets ->
              String.concat ", "
                (List.map (fun (gs, m) -> Printf.sprintf "%s (max_t=%d)" gs m) sets)
        in
        failwith
          (Printf.sprintf
             "Ma_table.get_for: no table provided for gate set %S (provided: %s); generate \
              one with tablegen and load it with --load-table"
             gate_set known)
