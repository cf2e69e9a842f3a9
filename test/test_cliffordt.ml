(* Tests for exact Clifford+T arithmetic, the Clifford group, and the
   Matsumoto–Amano enumeration table (TRASYN step 0). *)

let check_close msg a b = Alcotest.(check bool) msg true (Mat2.is_close ~tol:1e-9 a b)

let exact_vs_float_tests =
  [
    Alcotest.test_case "exact gates match float gates" `Quick (fun () ->
        List.iter
          (fun g ->
            check_close (Ctgate.to_string g) (Exact_u.to_mat2 (Exact_u.of_gate g)) (Ctgate.to_mat2 g))
          Ctgate.[ H; S; Sdg; T; Tdg; X; Y; Z ]);
    Alcotest.test_case "exact product matches float product" `Quick (fun () ->
        let seq = Ctgate.[ H; T; S; H; T; T; H; Sdg; T; X; H; T; Z ] in
        check_close "product" (Exact_u.to_mat2 (Exact_u.of_seq seq)) (Ctgate.seq_to_mat2 seq));
    Alcotest.test_case "adjoint is inverse" `Quick (fun () ->
        let u = Exact_u.of_seq Ctgate.[ H; T; S; H; T ] in
        Alcotest.(check bool) "U U† = I" true
          (Exact_u.equal (Exact_u.mul u (Exact_u.adjoint u)) Exact_u.identity));
    Alcotest.test_case "canonicalize is phase invariant" `Quick (fun () ->
        let u = Exact_u.of_seq Ctgate.[ H; T; H; T ] in
        for j = 0 to 7 do
          let v = Exact_u.mul_phase u j in
          Alcotest.(check bool) (Printf.sprintf "phase %d" j) true (Exact_u.equal_up_to_phase u v)
        done);
    Alcotest.test_case "distinct ops not identified" `Quick (fun () ->
        let u = Exact_u.of_seq Ctgate.[ H; T ] in
        let v = Exact_u.of_seq Ctgate.[ T; H ] in
        Alcotest.(check bool) "HT <> TH" false (Exact_u.equal_up_to_phase u v));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"random words: exact matches float"
         QCheck2.Gen.(list_size (int_range 0 20) (oneofl Ctgate.[ H; S; Sdg; T; Tdg; X; Y; Z ]))
         (fun seq ->
           Mat2.is_close ~tol:1e-8 (Exact_u.to_mat2 (Exact_u.of_seq seq)) (Ctgate.seq_to_mat2 seq)));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"exact unitaries are unitary"
         QCheck2.Gen.(list_size (int_range 0 20) (oneofl Ctgate.[ H; S; Sdg; T; Tdg; X; Y; Z ]))
         (fun seq -> Mat2.is_unitary ~tol:1e-8 (Exact_u.to_mat2 (Exact_u.of_seq seq))));
  ]

let clifford_tests =
  [
    Alcotest.test_case "exactly 24 Cliffords" `Quick (fun () ->
        Alcotest.(check int) "count" 24 Clifford.count);
    Alcotest.test_case "clifford words evaluate to their element" `Quick (fun () ->
        Array.iter
          (fun (e : Clifford.element) ->
            Alcotest.(check bool) "word matches" true
              (Exact_u.equal_up_to_phase (Exact_u.of_seq e.Clifford.word) e.Clifford.u))
          Clifford.elements);
    Alcotest.test_case "cliffords are closed under multiplication" `Quick (fun () ->
        Array.iter
          (fun (a : Clifford.element) ->
            Array.iter
              (fun (b : Clifford.element) ->
                let p = Exact_u.mul a.Clifford.u b.Clifford.u in
                Alcotest.(check bool) "closure" true (Clifford.is_clifford_up_to_phase p))
              Clifford.elements)
          Clifford.elements);
    Alcotest.test_case "T is not a Clifford" `Quick (fun () ->
        Alcotest.(check bool) "T" false (Clifford.is_clifford_up_to_phase Exact_u.gate_t));
  ]

(* The operator of entry [i], read back off its key plane: the key is
   the operator's coefficients after one phase multiple, so it is the
   operator up to phase, which is all [find] looks at. *)
let op_of_key (t : Ma_table.t) i =
  let k = t.Ma_table.keys and o = i * Exact_u.key_width in
  let z j = Exact_u.O.of_ints k.(o + j) k.(o + j + 1) k.(o + j + 2) k.(o + j + 3) in
  { Exact_u.k = k.(o); a = z 1; b = z 5; c = z 9; d = z 13 }

let ma_tests =
  [
    Alcotest.test_case "table count matches 24(3·2^m − 2)" `Quick (fun () ->
        List.iter
          (fun m ->
            let table = Ma_table.get m in
            Alcotest.(check int)
              (Printf.sprintf "m=%d" m)
              (Ma_table.theoretical_count m) (Ma_table.size table))
          [ 0; 1; 2; 3; 4; 5 ]);
    Alcotest.test_case "MA normal forms are pairwise distinct" `Quick (fun () ->
        (* Each entry's operator finds that entry: two entries with one
           operator would make at least one of them find the other. *)
        let table = Ma_table.get 4 in
        for i = 0 to Ma_table.size table - 1 do
          Alcotest.(check (option int)) "finds itself" (Some i)
            (Ma_table.find table (Exact_u.of_seq (Ma_table.word table i)))
        done);
    Alcotest.test_case "entry sequences have the declared T count" `Quick (fun () ->
        let table = Ma_table.get 4 in
        for i = 0 to Ma_table.size table - 1 do
          let w = Ma_table.word table i in
          Alcotest.(check int) "tcount" (Ma_table.tcount table i) (Ctgate.t_count w);
          Alcotest.(check int) "ccount" (Ma_table.ccount table i) (Ctgate.clifford_count w);
          Alcotest.(check bool) "key matches" true
            (Exact_u.canonical_key (Exact_u.of_seq w)
            = Array.sub table.Ma_table.keys (i * Exact_u.key_width) Exact_u.key_width);
          Alcotest.(check bool) "matrix matches" true
            (Ma_table.mat table i = Exact_u.to_mat2 (Exact_u.of_seq w))
        done);
    Alcotest.test_case "lookup finds T-optimal equivalents" `Quick (fun () ->
        let table = Ma_table.get 3 in
        (* T·T = S: a 2-T word whose operator is Clifford. *)
        let tt = Exact_u.of_seq Ctgate.[ T; T ] in
        (match Ma_table.find table tt with
        | Some i -> Alcotest.(check int) "T·T needs 0 T" 0 (Ma_table.tcount table i)
        | None -> Alcotest.fail "T·T not found");
        (* H T H T H T H has some T-count at most 3. *)
        let w = Exact_u.of_seq Ctgate.[ H; T; H; T; H; T; H ] in
        match Ma_table.find table w with
        | Some i -> Alcotest.(check bool) "<= 3 T" true (Ma_table.tcount table i <= 3)
        | None -> Alcotest.fail "not found");
    Alcotest.test_case "offsets partition by tcount" `Quick (fun () ->
        let table = Ma_table.get 5 in
        let offsets = table.Ma_table.offsets in
        for k = 0 to 5 do
          for i = offsets.(k) to offsets.(k + 1) - 1 do
            Alcotest.(check int) "k" k (Ma_table.tcount table i)
          done;
          let expected = if k = 0 then 24 else 24 * 3 * (1 lsl (k - 1)) in
          Alcotest.(check int)
            (Printf.sprintf "level %d size" k)
            expected
            (offsets.(k + 1) - offsets.(k))
        done);
    Alcotest.test_case "table entries within distance to nearby targets" `Quick (fun () ->
        (* The m=6 table must contain something within ~0.25 of any target. *)
        let table = Ma_table.get 6 in
        let rng = Random.State.make [| 42 |] in
        for _ = 1 to 10 do
          let target = Mat2.random_unitary rng in
          let best = ref infinity in
          for i = 0 to Ma_table.size table - 1 do
            best := Float.min !best (Mat2.distance target (Ma_table.mat table i))
          done;
          Alcotest.(check bool) "coverage" true (!best < 0.25)
        done);
  ]

let suite = exact_vs_float_tests @ clifford_tests @ ma_tests

(* Oracles for the direct-int kernels: each one against the generic
   [Zomega.Native] arithmetic it replaces.  Arbitrary coefficient
   matrices (not only unitaries, and not necessarily reduced) exercise
   the √2 reduction on every residue pattern. *)

module O = Zomega.Native

let gen_word =
  QCheck2.Gen.(list_size (int_range 0 30) (oneofl Ctgate.[ H; S; Sdg; T; Tdg; X; Y; Z ]))

let gen_raw =
  QCheck2.Gen.(
    let n = int_range (-20) 20 in
    let z = map (fun (a, b, c, d) -> O.of_ints a b c d) (quad n n n n) in
    map
      (fun ((a, b), (c, d), k) -> { Exact_u.a; b; c; d; k })
      (triple (pair z z) (pair z z) (int_range 0 4)))

let gen_exact = QCheck2.Gen.(oneof [ map Exact_u.of_seq gen_word; gen_raw ])
let print_exact = Exact_u.to_string

let rec reference_reduce (u : Exact_u.t) =
  if u.k = 0 then u
  else
    match (O.div_sqrt2_opt u.a, O.div_sqrt2_opt u.b, O.div_sqrt2_opt u.c, O.div_sqrt2_opt u.d) with
    | Some a, Some b, Some c, Some d -> reference_reduce { a; b; c; d; k = u.k - 1 }
    | _ -> u

let reference_mul (u : Exact_u.t) (v : Exact_u.t) =
  reference_reduce
    {
      a = O.add (O.mul u.a v.a) (O.mul u.b v.c);
      b = O.add (O.mul u.a v.b) (O.mul u.b v.d);
      c = O.add (O.mul u.c v.a) (O.mul u.d v.c);
      d = O.add (O.mul u.c v.b) (O.mul u.d v.d);
      k = u.k + v.k;
    }

(* Plane for plane over the first [count] entries: a truncation shares
   longer planes with its parent, so only that prefix is the table. *)
let check_same_planes what (a : Ma_table.t) (b : Ma_table.t) =
  let open Ma_table in
  let n = a.count in
  let prefix arr len = Array.sub arr 0 len in
  let bits arr = Array.map Int64.bits_of_float (prefix arr (4 * n)) in
  let check_ints plane x y = Alcotest.(check (array int)) (what ^ ": " ^ plane) x y in
  Alcotest.(check int) (what ^ ": max_t") a.max_t b.max_t;
  Alcotest.(check int) (what ^ ": count") n b.count;
  check_ints "offsets" a.offsets b.offsets;
  check_ints "keys" (prefix a.keys (n * Exact_u.key_width)) (prefix b.keys (n * Exact_u.key_width));
  check_ints "word starts" (prefix a.word_start (n + 1)) (prefix b.word_start (n + 1));
  Alcotest.(check string)
    (what ^ ": words")
    (Bytes.sub_string a.words 0 a.word_start.(n))
    (Bytes.sub_string b.words 0 b.word_start.(n));
  check_ints "tcounts" (prefix a.tcounts n) (prefix b.tcounts n);
  check_ints "ccounts" (prefix a.ccounts n) (prefix b.ccounts n);
  Alcotest.(check bool) (what ^ ": re bits") true (bits a.re = bits b.re);
  Alcotest.(check bool) (what ^ ": im bits") true (bits a.im = bits b.im);
  Alcotest.(check bool) (what ^ ": Ma_table.equal") true (Ma_table.equal a b)

let fast_kernel_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"canonical_key is the least phase-multiple key"
         ~print:print_exact gen_exact (fun u ->
           let keys = List.init 8 (fun j -> Exact_u.key (Exact_u.mul_phase u j)) in
           Exact_u.canonical_key u = List.fold_left min (List.hd keys) keys));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"mul_gate equals mul by the gate's matrix"
         ~print:print_exact gen_exact (fun u ->
           List.for_all
             (fun g ->
               Exact_u.key (Exact_u.mul_gate u g) = Exact_u.key (Exact_u.mul u (Exact_u.of_gate g)))
             Ctgate.[ H; S; Sdg; T; Tdg; X; Y; Z ]));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:500 ~name:"direct-int mul equals the functor product"
         ~print:QCheck2.Print.(pair print_exact print_exact)
         QCheck2.Gen.(pair gen_exact gen_exact)
         (fun (u, v) -> Exact_u.key (Exact_u.mul u v) = Exact_u.key (reference_mul u v)));
    Alcotest.test_case "key hash reads all 17 ints" `Quick (fun () ->
        let table = Ma_table.get 4 in
        for e = 0 to Ma_table.size table - 1 do
          let k = Array.sub table.Ma_table.keys (e * Exact_u.key_width) Exact_u.key_width in
          for i = 0 to 16 do
            let k' = Array.copy k in
            k'.(i) <- k'.(i) + 1;
            if Exact_u.hash_key k 0 = Exact_u.hash_key k' 0 then
              Alcotest.failf "keys differing at int %d share a hash" i
          done
        done);
    Alcotest.test_case "get 8 after get 10 equals build 8" `Slow (fun () ->
        let deep = Ma_table.get 10 in
        let cut = Ma_table.get 8 and built = Ma_table.build 8 in
        check_same_planes "get 8" built cut;
        for i = 0 to Ma_table.size built - 1 do
          let u = op_of_key built i in
          if Ma_table.find built u <> Ma_table.find cut u then
            Alcotest.failf "lookup of entry %d differs" i
        done;
        (* A depth no other test asks for: it must be cut from the cached
           depth-10 table, sharing its planes. *)
        let nine = Ma_table.get 9 in
        Alcotest.(check bool) "depth 9 shares the depth-10 planes" true
          (nine.Ma_table.keys == deep.Ma_table.keys
          && nine.Ma_table.re == deep.Ma_table.re
          && nine.Ma_table.index == deep.Ma_table.index));
  ]

(* Every depth cut from the depth-10 table, against its own build:
   the planes, and the shared index's answers inside and past the
   cut. *)
let truncation_tests =
  [
    Alcotest.test_case "truncate (build 10) m equals build m, lookups included" `Slow (fun () ->
        let deep = Ma_table.build 10 in
        for m = 0 to 9 do
          let what = Printf.sprintf "depth %d" m in
          let cut = Ma_table.truncate deep m and built = Ma_table.build m in
          check_same_planes what built cut;
          for i = 0 to Ma_table.size built - 1 do
            let u = op_of_key built i in
            let found = Ma_table.find cut u in
            if found <> Ma_table.find built u || found <> Some i then
              Alcotest.failf "%s: entry %d's key finds %s" what i
                (match found with Some j -> string_of_int j | None -> "nothing")
          done;
          for i = Ma_table.size built to Ma_table.size deep - 1 do
            if Ma_table.find cut (op_of_key deep i) <> None then
              Alcotest.failf "%s: depth-%d entry %d is found" what (Ma_table.tcount deep i) i
          done
        done);
    Alcotest.test_case "entry accessors reject indices past the count" `Quick (fun () ->
        let cut = Ma_table.truncate (Ma_table.get 3) 1 in
        let past = Ma_table.size cut in
        Alcotest.check_raises "word" (Invalid_argument "Ma_table: entry index out of range")
          (fun () -> ignore (Ma_table.word cut past)));
  ]

let suite = suite @ fast_kernel_tests @ truncation_tests

(* Tables the enumerations never produce: one operator under several
   words.  [find] answers the cheapest — fewer T, then fewer
   Cliffords, then the shorter word — and the earlier entry on a full
   tie. *)
let tie_rule_tests =
  [
    Alcotest.test_case "find prefers fewer T, then fewer Cliffords, then shorter" `Quick (fun () ->
        let table words =
          let b = Ma_table.builder ~max_t:8 2 in
          List.iter
            (fun w ->
              let seq = Ctgate.seq_of_string w in
              Ma_table.add b w ~tcount:(Ctgate.t_count seq) ~ccount:(Ctgate.clifford_count seq)
                (Exact_u.of_seq seq))
            words;
          Ma_table.finish b
        in
        let best words =
          let t = table words in
          Option.map (Ma_table.word_string t) (Ma_table.find t Exact_u.identity)
        in
        let check what want words = Alcotest.(check (option string)) what (Some want) (best words) in
        check "fewer Cliffords" "XX" [ "HH"; "XX"; "TTTTTTTT" ];
        check "shorter" "" [ "SSSS"; "XX"; ""; "TTTTTTTT" ];
        check "fewer T before fewer Cliffords" "SSss" [ "SSss"; "TTTTTTTT" ];
        check "earlier on a full tie" "YY" [ "YY"; "XX"; "ZZ" ];
        Alcotest.(check (option int)) "past the cut" None
          (Ma_table.find (Ma_table.truncate (table [ "T" ]) 0) Exact_u.gate_t));
  ]

let suite = suite @ tie_rule_tests

(* The loader and the generic closure do not know their entry count up
   front: the builder grows its planes and rebuilds its index as they
   fill, and must end where [build] does. *)
let growth_tests =
  [
    Alcotest.test_case "a builder grown from one entry equals build" `Quick (fun () ->
        let built = Ma_table.build 4 in
        let b = Ma_table.builder ~max_t:4 1 in
        for i = 0 to Ma_table.size built - 1 do
          let w = Ma_table.word_string built i in
          Ma_table.add b w ~tcount:(Ma_table.tcount built i) ~ccount:(Ma_table.ccount built i)
            (Exact_u.of_seq (Ctgate.seq_of_string w))
        done;
        let grown = Ma_table.finish b in
        check_same_planes "grown" built grown;
        for i = 0 to Ma_table.size built - 1 do
          if Ma_table.find grown (op_of_key built i) <> Some i then
            Alcotest.failf "grown lookup of entry %d" i
        done);
  ]

let suite = suite @ growth_tests
