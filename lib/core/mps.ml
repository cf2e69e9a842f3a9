(** The tensor-network engine of TRASYN (steps 1 and 2 of the paper).

    The trace values Tr(U†·M₁[s₁]·M₂[s₂]⋯M_l[s_l]) over all index
    choices form an exponentially large tensor; this module represents
    it as an MPS with bond dimension ≤ 4:

      site 1:  T₁[s]_(c,b)        = Σ_a conj(U_(a,b)) · M₁[s]_(a,c)
      site i:  T_i[s]_((c,b),(c',b')) = M_i[s]_(c,c') · δ_(b,b')
      site l:  T_l[s]_(c,b)       = M_l[s]_(c,b)

    (the δ-line carries the target's second matrix dimension from the
    end of the chain back to the beginning — the paper's "loop cut").
    A right-to-left orthogonalization sweep brings the MPS to canonical
    form, after which gate sequences are sampled from the chain rule
    p(s₁)p(s₂|s₁)… with each conditional computed locally, and every
    sample's trace value falls out of the final contraction for free.

    Everything on the hot path — construction, the LQ sweep, and the
    batched chain-rule sampler — works directly on the flat float
    planes with small preallocated scratch buffers: no [Cplx.t] is
    boxed per element access, so a synthesis attempt allocates O(k)
    words instead of O(k·l·n).

    The interior of the chain (every site but the first) never sees the
    target: {!canonical_chain} canonicalizes it once per operator-bank
    configuration, and {!instantiate} grafts a fresh target-folded first
    site onto the shared interior.  Sampling only reads site tensors, so
    one canonicalized interior can serve any number of targets — and any
    number of domains — concurrently. *)

type site = {
  dl : int;  (** left bond dimension *)
  dr : int;  (** right bond dimension *)
  n : int;  (** physical dimension = number of Clifford+T operators *)
  re : float array;  (** (s·dl + a)·dr + b, row-major per physical index *)
  im : float array;
  bank : Sitebank.t;
}

type t = { sites : site array; target : Mat2.t }

type sample = {
  indices : int array;  (** one physical index per site *)
  amplitude : Cplx.t;  (** Tr(U†·∏ M[sᵢ]) — the trace value *)
  multiplicity : int;  (** how many of the k draws landed here *)
}

let site_get s phys a b =
  let idx = (((phys * s.dl) + a) * s.dr) + b in
  { Cplx.re = s.re.(idx); im = s.im.(idx) }

let make_site bank dl dr =
  let n = bank.Sitebank.count in
  { dl; dr; n; re = Array.make (n * dl * dr) 0.0; im = Array.make (n * dl * dr) 0.0; bank }

(* ------------------------------------------------------------------ *)
(* Construction (unboxed per-site fills)                               *)
(* ------------------------------------------------------------------ *)

let c_sweeps = Obs.counter "mps.sweeps"
let c_samples = Obs.counter "mps.samples_drawn"

(* Bank entry (phys, row, col) lives at (first + phys)·4 + row·2 + col of
   the table's re/im planes. *)
let planes bank =
  let table = bank.Sitebank.table in
  (table.Ma_table.re, table.Ma_table.im, bank.Sitebank.first * 4)

(* Single site (l = 1): the tensor is directly the trace values
   Σ_ab conj(U_ab)·M[s]_ab. *)
let fill_single_site (u : Mat2.t) bank =
  let s = make_site bank 1 1 in
  let bre, bim, first = planes bank in
  let dot acc_re acc_im (z : Cplx.t) mre mim =
    (* conj(z)·m accumulated into (acc_re, acc_im) *)
    (acc_re +. (z.Cplx.re *. mre) +. (z.Cplx.im *. mim),
     acc_im +. (z.Cplx.re *. mim) -. (z.Cplx.im *. mre))
  in
  for phys = 0 to s.n - 1 do
    let b = first + (phys * 4) in
    let re, im = dot 0.0 0.0 u.Mat2.m00 bre.(b) bim.(b) in
    let re, im = dot re im u.Mat2.m01 bre.(b + 1) bim.(b + 1) in
    let re, im = dot re im u.Mat2.m10 bre.(b + 2) bim.(b + 2) in
    let re, im = dot re im u.Mat2.m11 bre.(b + 3) bim.(b + 3) in
    s.re.(phys) <- re;
    s.im.(phys) <- im
  done;
  s

(* First site of a longer chain: fold in U† and open the composite
   bond (c,b): T[s]_(0,(c·2+b)) = Σ_a conj(U_(a,b))·M[s]_(a,c). *)
let fill_first_site (u : Mat2.t) bank =
  let s = make_site bank 1 4 in
  let bre, bim, first = planes bank in
  let urow b = if b = 0 then (u.Mat2.m00, u.Mat2.m10) else (u.Mat2.m01, u.Mat2.m11) in
  for phys = 0 to s.n - 1 do
    let base = first + (phys * 4) in
    for c = 0 to 1 do
      let m0re = bre.(base + c) and m0im = bim.(base + c) in
      let m1re = bre.(base + 2 + c) and m1im = bim.(base + 2 + c) in
      for b = 0 to 1 do
        let u0, u1 = urow b in
        (* conj(u0)·m0 + conj(u1)·m1 *)
        let re =
          (u0.Cplx.re *. m0re) +. (u0.Cplx.im *. m0im)
          +. (u1.Cplx.re *. m1re) +. (u1.Cplx.im *. m1im)
        in
        let im =
          (u0.Cplx.re *. m0im) -. (u0.Cplx.im *. m0re)
          +. (u1.Cplx.re *. m1im) -. (u1.Cplx.im *. m1re)
        in
        let j = (phys * 4) + (c * 2) + b in
        s.re.(j) <- re;
        s.im.(j) <- im
      done
    done
  done;
  s

(* Last site: close the composite bond.  T[s]_((c·2+b),0) = M[s]_(c,b),
   which in flat layout is exactly the bank's run of the table planes. *)
let fill_last_site bank =
  let s = make_site bank 4 1 in
  let bre, bim, first = planes bank in
  Array.blit bre first s.re 0 (s.n * 4);
  Array.blit bim first s.im 0 (s.n * 4);
  s

(* Middle site: M ⊗ identity line. *)
let fill_middle_site bank =
  let s = make_site bank 4 4 in
  let bre, bim, first = planes bank in
  for phys = 0 to s.n - 1 do
    let bankbase = first + (phys * 4) and sitebase = phys * 16 in
    for c = 0 to 1 do
      for c' = 0 to 1 do
        let mre = bre.(bankbase + (c * 2) + c') and mim = bim.(bankbase + (c * 2) + c') in
        for b = 0 to 1 do
          let j = sitebase + (((c * 2) + b) * 4) + (c' * 2) + b in
          s.re.(j) <- mre;
          s.im.(j) <- mim
        done
      done
    done
  done;
  s

let build ~(target : Mat2.t) (banks : Sitebank.t array) =
  let l = Array.length banks in
  if l = 0 then invalid_arg "Mps.build: need at least one site";
  Obs.span "mps.build" @@ fun () ->
  let sites =
    Array.mapi
      (fun i bank ->
        if l = 1 then fill_single_site target bank
        else if i = 0 then fill_first_site target bank
        else if i = l - 1 then fill_last_site bank
        else fill_middle_site bank)
      banks
  in
  { sites; target }

(* Exact trace value for a full index assignment (direct evaluation,
   used by tests and to double-check samples). *)
let trace_of_indices t indices =
  let prod = ref Mat2.identity in
  Array.iteri
    (fun i s -> prod := Mat2.mul !prod (Sitebank.matrix t.sites.(i).bank s))
    indices;
  Mat2.trace (Mat2.mul (Mat2.adjoint t.target) !prod)

(* ------------------------------------------------------------------ *)
(* Canonicalization (right-to-left LQ sweep, unboxed)                  *)
(* ------------------------------------------------------------------ *)

(* In-place LQ of a site viewed as a (dl × n·dr) matrix: row-wise
   modified Gram–Schmidt with one reorthogonalization pass (mirroring
   [Svd.lq]'s numerics).  Leaves the orthonormal-row Q in the site and
   writes L (dl×dl, row-major, lower triangular) into the caller's
   scratch.  Zero rows (rank deficiency) keep a zero Q row, matching
   the previous behaviour. *)
let lq_site s l_re l_im =
  let dl = s.dl and dr = s.dr and n = s.n in
  let re = s.re and im = s.im in
  Array.fill l_re 0 (dl * dl) 0.0;
  Array.fill l_im 0 (dl * dl) 0.0;
  for i = 0 to dl - 1 do
    for _pass = 1 to 2 do
      for j = 0 to i - 1 do
        (* proj = ⟨q_j, a_i⟩ = Σ_k conj(q_j[k])·a_i[k] *)
        let pre = ref 0.0 and pim = ref 0.0 in
        for phys = 0 to n - 1 do
          let base = phys * dl * dr in
          let oj = base + (j * dr) and oi = base + (i * dr) in
          for b = 0 to dr - 1 do
            let qre = re.(oj + b) and qim = im.(oj + b) in
            let are = re.(oi + b) and aim = im.(oi + b) in
            pre := !pre +. (qre *. are) +. (qim *. aim);
            pim := !pim +. (qre *. aim) -. (qim *. are)
          done
        done;
        let pre = !pre and pim = !pim in
        l_re.((i * dl) + j) <- l_re.((i * dl) + j) +. pre;
        l_im.((i * dl) + j) <- l_im.((i * dl) + j) +. pim;
        (* a_i ← a_i − proj·q_j *)
        for phys = 0 to n - 1 do
          let base = phys * dl * dr in
          let oj = base + (j * dr) and oi = base + (i * dr) in
          for b = 0 to dr - 1 do
            let qre = re.(oj + b) and qim = im.(oj + b) in
            re.(oi + b) <- re.(oi + b) -. ((pre *. qre) -. (pim *. qim));
            im.(oi + b) <- im.(oi + b) -. ((pre *. qim) +. (pim *. qre))
          done
        done
      done
    done;
    let n2 = ref 0.0 in
    for phys = 0 to n - 1 do
      let oi = (phys * dl * dr) + (i * dr) in
      for b = 0 to dr - 1 do
        n2 := !n2 +. (re.(oi + b) *. re.(oi + b)) +. (im.(oi + b) *. im.(oi + b))
      done
    done;
    let nrm = Float.sqrt !n2 in
    l_re.((i * dl) + i) <- nrm;
    if nrm > 1e-14 then begin
      let inv = 1.0 /. nrm in
      for phys = 0 to n - 1 do
        let oi = (phys * dl * dr) + (i * dr) in
        for b = 0 to dr - 1 do
          re.(oi + b) <- re.(oi + b) *. inv;
          im.(oi + b) <- im.(oi + b) *. inv
        done
      done
    end
  done

(* Contract a (dr × dr) matrix into the right bond of a site:
   A[s]_(a,b) ← Σ_c A[s]_(a,c) · L_(c,b).  [ld] is L's row stride. *)
let absorb_right s ~ld l_re l_im =
  let dl = s.dl and dr = s.dr in
  let re = s.re and im = s.im in
  let row_re = Array.make dr 0.0 and row_im = Array.make dr 0.0 in
  for phys = 0 to s.n - 1 do
    for a = 0 to dl - 1 do
      let base = (((phys * dl) + a) * dr) in
      Array.blit re base row_re 0 dr;
      Array.blit im base row_im 0 dr;
      for b = 0 to dr - 1 do
        let acc_re = ref 0.0 and acc_im = ref 0.0 in
        for c = 0 to dr - 1 do
          let lre = l_re.((c * ld) + b) and lim = l_im.((c * ld) + b) in
          acc_re := !acc_re +. (row_re.(c) *. lre) -. (row_im.(c) *. lim);
          acc_im := !acc_im +. (row_re.(c) *. lim) +. (row_im.(c) *. lre)
        done;
        re.(base + b) <- !acc_re;
        im.(base + b) <- !acc_im
      done
    done
  done

(* Bring sites 1..l−1 to right-canonical form; site 0 absorbs the norm. *)
let canonicalize t =
  Obs.span "mps.canonicalize" @@ fun () ->
  let l = Array.length t.sites in
  Obs.incr ~by:(max 0 (l - 1)) c_sweeps;
  let l_re = Array.make 16 0.0 and l_im = Array.make 16 0.0 in
  for i = l - 1 downto 1 do
    let s = t.sites.(i) in
    lq_site s l_re l_im;
    absorb_right t.sites.(i - 1) ~ld:s.dl l_re l_im
  done

(* Canonical-form check: Σ_s A[s]·A[s]† = identity on the left bond. *)
let right_canonical_error s =
  let acc = Cmatrix.create s.dl s.dl in
  for phys = 0 to s.n - 1 do
    for a = 0 to s.dl - 1 do
      for a' = 0 to s.dl - 1 do
        let sum = ref (Cmatrix.get acc a a') in
        for b = 0 to s.dr - 1 do
          sum := Cplx.add !sum (Cplx.mul (site_get s phys a b) (Cplx.conj (site_get s phys a' b)))
        done;
        Cmatrix.set acc a a' !sum
      done
    done
  done;
  Cmatrix.frobenius_norm (Cmatrix.sub acc (Cmatrix.identity s.dl))

(* ------------------------------------------------------------------ *)
(* Reusable canonicalized chains                                       *)
(* ------------------------------------------------------------------ *)

type chain = {
  banks : Sitebank.t array;
  interior : site array;  (** canonicalized sites 1..l−1; [[||]] when l = 1 *)
  bl_re : float array;  (** boundary L from site 1's LQ, row-major bl_d×bl_d *)
  bl_im : float array;
  bl_d : int;  (** 0 when l = 1 (nothing to absorb) *)
}

let canonical_chain (banks : Sitebank.t array) =
  let l = Array.length banks in
  if l = 0 then invalid_arg "Mps.canonical_chain: need at least one site";
  Obs.span "mps.chain_build" @@ fun () ->
  if l = 1 then { banks; interior = [||]; bl_re = [||]; bl_im = [||]; bl_d = 0 }
  else begin
    let interior =
      Array.init (l - 1) (fun j ->
          let i = j + 1 in
          if i = l - 1 then fill_last_site banks.(i) else fill_middle_site banks.(i))
    in
    (* Same sweep as [canonicalize], stopping short of site 0: the
       boundary L that would be absorbed into the (target-dependent)
       first site is kept for {!instantiate}. *)
    Obs.incr ~by:(l - 1) c_sweeps;
    let l_re = Array.make 16 0.0 and l_im = Array.make 16 0.0 in
    for i = l - 1 downto 2 do
      let s = interior.(i - 1) in
      lq_site s l_re l_im;
      absorb_right interior.(i - 2) ~ld:s.dl l_re l_im
    done;
    let s1 = interior.(0) in
    lq_site s1 l_re l_im;
    let d = s1.dl in
    {
      banks;
      interior;
      bl_re = Array.sub l_re 0 (d * d);
      bl_im = Array.sub l_im 0 (d * d);
      bl_d = d;
    }
  end

let instantiate ~(target : Mat2.t) chain =
  Obs.span "mps.instantiate" @@ fun () ->
  let l = Array.length chain.banks in
  let s0 =
    if l = 1 then fill_single_site target chain.banks.(0)
    else fill_first_site target chain.banks.(0)
  in
  if chain.bl_d > 0 then absorb_right s0 ~ld:chain.bl_d chain.bl_re chain.bl_im;
  { sites = Array.append [| s0 |] chain.interior; target }

(* ------------------------------------------------------------------ *)
(* Sampling (step 2, batched)                                          *)
(* ------------------------------------------------------------------ *)

(* Fixed seed behind the sampler's default rng: library callers get
   reproducible draws without opting in (pass an explicit [rng] to
   vary them). *)
let default_rng_seed = 0x5eed

(* Conditional weights of one frontier entry over the physical index:
   weights.(s) = Σ_b |Σ_a w[a]·A[s]_(a,b)|², returning the total.
   [woff] locates the entry's bond vector inside the frontier planes. *)
let frontier_weights site w_re w_im woff weights =
  let dl = site.dl and dr = site.dr and n = site.n in
  let sre = site.re and sim = site.im in
  let total = ref 0.0 in
  for phys = 0 to n - 1 do
    let base = phys * dl * dr in
    let acc = ref 0.0 in
    for b = 0 to dr - 1 do
      let vre = ref 0.0 and vim = ref 0.0 in
      for a = 0 to dl - 1 do
        let are = sre.(base + (a * dr) + b) and aim = sim.(base + (a * dr) + b) in
        let wre = w_re.(woff + a) and wim = w_im.(woff + a) in
        vre := !vre +. (wre *. are) -. (wim *. aim);
        vim := !vim +. (wre *. aim) +. (wim *. are)
      done;
      acc := !acc +. (!vre *. !vre) +. (!vim *. !vim)
    done;
    weights.(phys) <- !acc;
    total := !total +. !acc
  done;
  !total

(* w' = w·A[phys], written into the destination frontier at [doff]. *)
let advance_into site w_re w_im woff phys dst_re dst_im doff =
  let dl = site.dl and dr = site.dr in
  let sre = site.re and sim = site.im in
  let base = phys * dl * dr in
  for b = 0 to dr - 1 do
    let vre = ref 0.0 and vim = ref 0.0 in
    for a = 0 to dl - 1 do
      let are = sre.(base + (a * dr) + b) and aim = sim.(base + (a * dr) + b) in
      let wre = w_re.(woff + a) and wim = w_im.(woff + a) in
      vre := !vre +. (wre *. are) -. (wim *. aim);
      vim := !vim +. (wre *. aim) +. (wim *. are)
    done;
    dst_re.(doff + b) <- !vre;
    dst_im.(doff + b) <- !vim
  done

(* In-place ascending heapsort of a.(0 .. m−1): allocation-free and
   deterministic, so the sorted-uniforms draw can reuse one scratch
   buffer wider than the live prefix. *)
let sort_range a m =
  let swap i j =
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  in
  let rec sift root len =
    let child = (2 * root) + 1 in
    if child < len then begin
      let child = if child + 1 < len && a.(child) < a.(child + 1) then child + 1 else child in
      if a.(root) < a.(child) then begin
        swap root child;
        sift child len
      end
    end
  in
  for i = (m / 2) - 1 downto 0 do
    sift i m
  done;
  for i = m - 1 downto 1 do
    swap 0 i;
    sift 0 i
  done

(* The frontier: all distinct sampled prefixes at the current level,
   stored flat — bond vectors in two float planes (padded to the max
   bond of 4), index prefixes row-major, one multiplicity each.  All k
   draws advance through the chain together, so the per-level work and
   allocation scale with the number of distinct prefixes (≤ k), not
   with k·l. *)
let max_bond = 4

let sample ?rng ?(argmax_last = true) t ~k =
  let rng = match rng with Some r -> r | None -> Random.State.make [| default_rng_seed |] in
  Obs.span "mps.sample" @@ fun () ->
  Obs.incr ~by:k c_samples;
  let l = Array.length t.sites in
  (* Every level emits at most one child per draw (≤ k in total) plus,
     at the last level, one argmax completion per surviving prefix. *)
  let cap = (2 * Int.max 1 k) + 2 in
  let maxn = Array.fold_left (fun m s -> Int.max m s.n) 1 t.sites in
  let w_re = [| Array.make (cap * max_bond) 0.0; Array.make (cap * max_bond) 0.0 |] in
  let w_im = [| Array.make (cap * max_bond) 0.0; Array.make (cap * max_bond) 0.0 |] in
  let idx = [| Array.make (cap * l) 0; Array.make (cap * l) 0 |] in
  let mlt = [| Array.make cap 0; Array.make cap 0 |] in
  let weights = Array.make maxn 0.0 in
  let points = Array.make (Int.max 1 k) 0.0 in
  let cur = ref 0 and count = ref 1 in
  w_re.(0).(0) <- 1.0;
  mlt.(0).(0) <- k;
  for level = 0 to l - 1 do
    let site = t.sites.(level) in
    let c = !cur in
    let nx = 1 - c in
    let cw_re = w_re.(c) and cw_im = w_im.(c) and cidx = idx.(c) and cmlt = mlt.(c) in
    let nw_re = w_re.(nx) and nw_im = w_im.(nx) and nidx = idx.(nx) and nmlt = mlt.(nx) in
    let last = level = l - 1 in
    let next_count = ref 0 in
    let emit parent phys m =
      let ci = !next_count in
      advance_into site cw_re cw_im (parent * max_bond) phys nw_re nw_im (ci * max_bond);
      Array.blit cidx (parent * l) nidx (ci * l) level;
      nidx.((ci * l) + level) <- phys;
      nmlt.(ci) <- m;
      incr next_count
    in
    for e = 0 to !count - 1 do
      let total = frontier_weights site cw_re cw_im (e * max_bond) weights in
      let first_child = !next_count in
      let mult = cmlt.(e) in
      if total > 0.0 then begin
        (* Draw [mult] categorical samples in one pass over sorted
           uniforms; counts come out grouped by physical index. *)
        for m = 0 to mult - 1 do
          points.(m) <- Random.State.float rng total
        done;
        sort_range points mult;
        let j = ref 0 and cum = ref 0.0 and last_nz = ref 0 in
        for phys = 0 to site.n - 1 do
          let w = weights.(phys) in
          cum := !cum +. w;
          if w > 0.0 then last_nz := phys;
          let drawn = ref 0 in
          while !j < mult && points.(!j) <= !cum do
            incr drawn;
            incr j
          done;
          if !drawn > 0 then emit e phys !drawn
        done;
        (* Numerical tail: assign any stragglers to the last nonzero
           weight (merging with its child when one was just drawn). *)
        if !j < mult then begin
          let leftover = mult - !j in
          if !next_count > first_child && nidx.(((!next_count - 1) * l) + level) = !last_nz
          then nmlt.(!next_count - 1) <- nmlt.(!next_count - 1) + leftover
          else emit e !last_nz leftover
        end
      end;
      (* With [argmax_last], each distinct prefix also contributes the
         best completion of the final site: the conditional weights
         there are exactly the per-sequence trace values and have
         already been computed, so taking their maximum costs nothing
         extra and is what makes best-of-k reach deep error targets. *)
      if last && argmax_last then begin
        let best = ref 0 in
        for phys = 1 to site.n - 1 do
          if weights.(phys) > weights.(!best) then best := phys
        done;
        let found = ref false in
        for ci = first_child to !next_count - 1 do
          if nidx.((ci * l) + level) = !best then found := true
        done;
        if not !found then emit e !best 1
      end
    done;
    cur := nx;
    count := !next_count
  done;
  let c = !cur in
  let fw_re = w_re.(c) and fw_im = w_im.(c) and fidx = idx.(c) and fmlt = mlt.(c) in
  let out = ref [] in
  for e = !count - 1 downto 0 do
    out :=
      {
        indices = Array.init l (fun i -> fidx.((e * l) + i));
        amplitude = { Cplx.re = fw_re.(e * max_bond); im = fw_im.(e * max_bond) };
        multiplicity = fmlt.(e);
      }
      :: !out
  done;
  !out

(* Deterministic beam search over the same distribution: keep the [beam]
   highest-weight partials at each level.  Used by the greedy ablation.
   Selection happens in a fixed-size sorted scratch (stable descending
   insertion), never materializing the partials × physical-index score
   list the previous implementation sorted. *)
let beam_search t ~beam =
  Obs.span "mps.beam_search" @@ fun () ->
  if beam <= 0 then []
  else begin
    let l = Array.length t.sites in
    let maxn = Array.fold_left (fun m s -> Int.max m s.n) 1 t.sites in
    let w_re = [| Array.make (beam * max_bond) 0.0; Array.make (beam * max_bond) 0.0 |] in
    let w_im = [| Array.make (beam * max_bond) 0.0; Array.make (beam * max_bond) 0.0 |] in
    let idx = [| Array.make (beam * l) 0; Array.make (beam * l) 0 |] in
    let weights = Array.make maxn 0.0 in
    let sel_w = Array.make beam 0.0 in
    let sel_parent = Array.make beam 0 and sel_phys = Array.make beam 0 in
    let cur = ref 0 and count = ref 1 in
    w_re.(0).(0) <- 1.0;
    for level = 0 to l - 1 do
      let site = t.sites.(level) in
      let c = !cur in
      let nx = 1 - c in
      let cw_re = w_re.(c) and cw_im = w_im.(c) and cidx = idx.(c) in
      let nw_re = w_re.(nx) and nw_im = w_im.(nx) and nidx = idx.(nx) in
      let sel_count = ref 0 in
      for e = 0 to !count - 1 do
        ignore (frontier_weights site cw_re cw_im (e * max_bond) weights);
        for phys = 0 to site.n - 1 do
          let w = weights.(phys) in
          if !sel_count < beam || w > sel_w.(beam - 1) then begin
            (* Stable descending insert: among equal weights the
               earlier-generated candidate keeps the better rank. *)
            let kept = !sel_count in
            let p = ref 0 in
            while !p < kept && sel_w.(!p) >= w do
              incr p
            done;
            if !p < beam then begin
              for q = Int.min (kept - 1) (beam - 2) downto !p do
                sel_w.(q + 1) <- sel_w.(q);
                sel_parent.(q + 1) <- sel_parent.(q);
                sel_phys.(q + 1) <- sel_phys.(q)
              done;
              sel_w.(!p) <- w;
              sel_parent.(!p) <- e;
              sel_phys.(!p) <- phys;
              if kept < beam then sel_count := kept + 1
            end
          end
        done
      done;
      for s = 0 to !sel_count - 1 do
        let parent = sel_parent.(s) and phys = sel_phys.(s) in
        advance_into site cw_re cw_im (parent * max_bond) phys nw_re nw_im (s * max_bond);
        Array.blit cidx (parent * l) nidx (s * l) level;
        nidx.((s * l) + level) <- phys
      done;
      cur := nx;
      count := !sel_count
    done;
    let c = !cur in
    let fw_re = w_re.(c) and fw_im = w_im.(c) and fidx = idx.(c) in
    let out = ref [] in
    for e = !count - 1 downto 0 do
      out :=
        {
          indices = Array.init l (fun i -> fidx.((e * l) + i));
          amplitude = { Cplx.re = fw_re.(e * max_bond); im = fw_im.(e * max_bond) };
          multiplicity = 1;
        }
        :: !out
    done;
    !out
  end
