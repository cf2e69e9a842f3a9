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
        let table = Ma_table.get 4 in
        let seen = Exact_u.Table.create 1024 in
        Array.iter
          (fun (e : Ma_table.entry) ->
            let key = Exact_u.canonical_key e.Ma_table.u in
            Alcotest.(check bool) "fresh" false (Exact_u.Table.mem seen key);
            Exact_u.Table.add seen key ())
          (Ma_table.entries_in_range table ~lo:0 ~hi:4));
    Alcotest.test_case "entry sequences have the declared T count" `Quick (fun () ->
        let table = Ma_table.get 4 in
        Array.iter
          (fun (e : Ma_table.entry) ->
            Alcotest.(check int) "tcount" e.Ma_table.tcount (Ctgate.t_count e.Ma_table.seq);
            Alcotest.(check bool) "matrix matches" true
              (Exact_u.equal_up_to_phase (Exact_u.of_seq e.Ma_table.seq) e.Ma_table.u))
          table.Ma_table.entries);
    Alcotest.test_case "lookup finds T-optimal equivalents" `Quick (fun () ->
        let table = Ma_table.get 3 in
        (* T·T = S: a 2-T word whose operator is Clifford. *)
        let tt = Exact_u.of_seq Ctgate.[ T; T ] in
        (match Ma_table.lookup_best table tt with
        | Some e -> Alcotest.(check int) "T·T needs 0 T" 0 e.Ma_table.tcount
        | None -> Alcotest.fail "T·T not found");
        (* H T H T H T H has some T-count at most 3. *)
        let w = Exact_u.of_seq Ctgate.[ H; T; H; T; H; T; H ] in
        match Ma_table.lookup_best table w with
        | Some e -> Alcotest.(check bool) "<= 3 T" true (e.Ma_table.tcount <= 3)
        | None -> Alcotest.fail "not found");
    Alcotest.test_case "offsets partition by tcount" `Quick (fun () ->
        let table = Ma_table.get 5 in
        for k = 0 to 5 do
          let sub = Ma_table.entries_in_range table ~lo:k ~hi:k in
          Array.iter (fun (e : Ma_table.entry) -> Alcotest.(check int) "k" k e.Ma_table.tcount) sub;
          let expected = if k = 0 then 24 else 24 * 3 * (1 lsl (k - 1)) in
          Alcotest.(check int) (Printf.sprintf "level %d size" k) expected (Array.length sub)
        done);
    Alcotest.test_case "table entries within distance to nearby targets" `Quick (fun () ->
        (* The m=6 table must contain something within ~0.25 of any target. *)
        let table = Ma_table.get 6 in
        let rng = Random.State.make [| 42 |] in
        for _ = 1 to 10 do
          let target = Mat2.random_unitary rng in
          let best =
            Array.fold_left
              (fun acc (e : Ma_table.entry) -> Float.min acc (Mat2.distance target e.Ma_table.mat))
              infinity table.Ma_table.entries
          in
          Alcotest.(check bool) "coverage" true (best < 0.25)
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

let entries_identical (x : Ma_table.entry) (y : Ma_table.entry) =
  let bits (z : Cplx.t) = (Int64.bits_of_float z.Cplx.re, Int64.bits_of_float z.Cplx.im) in
  let mat_bits (m : Mat2.t) = List.map bits Mat2.[ m.m00; m.m01; m.m10; m.m11 ] in
  x.seq = y.seq && Exact_u.key x.u = Exact_u.key y.u && mat_bits x.mat = mat_bits y.mat
  && x.tcount = y.tcount && x.ccount = y.ccount

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
        Array.iter
          (fun (e : Ma_table.entry) ->
            let k = Exact_u.canonical_key e.Ma_table.u in
            for i = 10 to 16 do
              let k' = Array.copy k in
              k'.(i) <- k'.(i) + 1;
              if Exact_u.Key.hash k = Exact_u.Key.hash k' then
                Alcotest.failf "keys differing at int %d share a hash" i
            done)
          table.Ma_table.entries);
    Alcotest.test_case "get 8 after get 10 equals build 8" `Slow (fun () ->
        let deep = Ma_table.get 10 in
        let cut = Ma_table.get 8 and built = Ma_table.build 8 in
        Alcotest.(check int) "max_t" built.Ma_table.max_t cut.Ma_table.max_t;
        Alcotest.(check (array int)) "offsets" built.Ma_table.offsets cut.Ma_table.offsets;
        Alcotest.(check int) "size" (Ma_table.size built) (Ma_table.size cut);
        Array.iteri
          (fun i e ->
            if not (entries_identical e cut.Ma_table.entries.(i)) then
              Alcotest.failf "entry %d differs" i;
            let look t =
              Option.map (fun (x : Ma_table.entry) -> x.seq) (Ma_table.lookup_best t e.Ma_table.u)
            in
            if look built <> look cut then Alcotest.failf "lookup of entry %d differs" i)
          built.Ma_table.entries;
        (* A depth no other test asks for: it must be cut from the cached
           depth-10 table, sharing its entries. *)
        let nine = Ma_table.get 9 in
        Alcotest.(check bool) "depth 9 shares the depth-10 entries" true
          (Array.for_all2 ( == ) nine.Ma_table.entries
             (Array.sub deep.Ma_table.entries 0 (Ma_table.size nine))));
  ]

let suite = suite @ fast_kernel_tests
