(** Step 3 of TRASYN: peephole resynthesis of sampled gate sequences.

    Concatenating per-site optimal sequences can create suboptimal
    subsequences (e.g. ...T·T... across a site boundary).  We slide
    windows over the word, evaluate each window exactly in D[ω], and
    replace it whenever the step-0 table knows a cheaper equivalent
    (fewer T, then fewer Cliffords, then shorter), iterating to a
    fixpoint.  Replacements are exact up to global phase, which is the
    equivalence the synthesis works under.

    Each pass rewrites the leftmost start position that has a cheaper
    window (its longest such window).  After a rewrite at [start] the
    next pass resumes at [start − max_window], not at 0, and rewrites
    exactly what a scan from 0 would.  A window is at most [max_window]
    gates long, so every window starting before [start − max_window]
    ends at or before [start], inside the unchanged prefix.  Those
    windows were already scanned and none was cheaper; the earlier
    passes had either scanned them or resumed past them by this same
    argument.  The rewrite sequence, and so the result under any
    [max_iters], is that of a rescan from 0. *)

let is_counted_clifford g = Ctgate.is_clifford g && not (Ctgate.is_pauli g)

(* Whether table entry [i] is strictly cheaper than a window of [t] T
   gates, [c] non-Pauli Cliffords and [l] gates. *)
let cheaper table i ~t ~c ~l =
  let et = Ma_table.tcount table i and ec = Ma_table.ccount table i in
  et < t || (et = t && (ec < c || (ec = c && Ma_table.word_length table i < l)))

(* The leftmost start at or after [from] with a strictly cheaper table
   equivalent, as (start, stop, replacement) for its longest such
   window.  Each window extends the previous one by one gate, so its
   operator and its counts are one step from the previous ones. *)
let find_rewrite (table : Ma_table.t) max_window arr from =
  let len = Array.length arr in
  let found = ref None in
  let start = ref from in
  while Option.is_none !found && !start < len do
    let s = !start in
    let u = ref Exact_u.identity and wt = ref 0 and wc = ref 0 in
    let stop = ref (s + 1) and grow = ref true and best = ref None in
    (* Grow the window while its T count stays within the table. *)
    while !grow && !stop <= len do
      let g = arr.(!stop - 1) in
      let t = if Ctgate.is_t g then !wt + 1 else !wt in
      let l = !stop - s in
      if t > table.Ma_table.max_t || l > max_window then grow := false
      else begin
        u := Exact_u.mul_gate !u g;
        wt := t;
        if is_counted_clifford g then incr wc;
        (match Ma_table.find table !u with
        | Some i when cheaper table i ~t ~c:!wc ~l -> best := Some (!stop, i)
        | _ -> ());
        incr stop
      end
    done;
    match !best with
    | Some (stop, i) -> found := Some (s, stop, Ma_table.word table i)
    | None -> incr start
  done;
  !found

let run ?(max_window = 24) ?(max_iters = 200) table gates =
  let rec loop arr from iters =
    if iters = 0 then arr
    else
      match find_rewrite table max_window arr from with
      | Some (start, stop, replacement) ->
          let arr =
            Array.concat
              [
                Array.sub arr 0 start;
                Array.of_list replacement;
                Array.sub arr stop (Array.length arr - stop);
              ]
          in
          loop arr (max 0 (start - max_window)) (iters - 1)
      | None -> arr
  in
  Array.to_list (loop (Array.of_list gates) 0 max_iters)
