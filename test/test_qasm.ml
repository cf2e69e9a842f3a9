(* Tests for the OpenQASM printer/reader pair. *)

let rng = Random.State.make [| 808 |]

let random_circuit n gates =
  let instrs = ref [] in
  for _ = 1 to gates do
    let q = Random.State.int rng n in
    let q2 = (q + 1 + Random.State.int rng (n - 1)) mod n in
    let q3 = (q2 + 1 + Random.State.int rng (n - 2)) mod n in
    let q3 = if q3 = q then (q3 + 1) mod n else q3 in
    let angle = Random.State.float rng 6.0 -. 3.0 in
    let i =
      match Random.State.int rng 10 with
      | 0 -> Circuit.instr Qgate.H [| q |]
      | 1 -> Circuit.instr (Qgate.Rz angle) [| q |]
      | 2 -> Circuit.instr (Qgate.Rx angle) [| q |]
      | 3 -> Circuit.instr (Qgate.U3 (angle, -.angle, angle /. 3.0)) [| q |]
      | 4 -> Circuit.instr Qgate.T [| q |]
      | 5 -> Circuit.instr Qgate.Sdg [| q |]
      | 6 -> Circuit.instr Qgate.CX [| q; q2 |]
      | 7 -> Circuit.instr Qgate.CZ [| q; q2 |]
      | 8 -> Circuit.instr Qgate.Swap [| q; q2 |]
      | _ -> if q3 <> q && q3 <> q2 then Circuit.instr Qgate.Ccx [| q; q2; q3 |]
             else Circuit.instr Qgate.Y [| q |]
    in
    instrs := i :: !instrs
  done;
  Circuit.make n (List.rev !instrs)

let suite =
  [
    Alcotest.test_case "print/parse round trip preserves structure" `Quick (fun () ->
        for _ = 1 to 10 do
          let c = random_circuit 4 20 in
          let c' = Qasm_reader.of_string (Qasm.to_string c) in
          Alcotest.(check int) "qubits" c.Circuit.n_qubits c'.Circuit.n_qubits;
          Alcotest.(check int) "gates" (Circuit.length c) (Circuit.length c');
          Alcotest.(check int) "T count" (Circuit.t_count c) (Circuit.t_count c')
        done);
    Alcotest.test_case "round trip preserves semantics" `Quick (fun () ->
        for _ = 1 to 10 do
          let c = random_circuit 3 15 in
          let c' = Qasm_reader.of_string (Qasm.to_string c) in
          let d = Cmatrix.distance (Unitary.of_circuit c) (Unitary.of_circuit c') in
          Alcotest.(check bool) "equivalent" true (d < 1e-6)
        done);
    Alcotest.test_case "expressions with pi parse" `Quick (fun () ->
        let c =
          Qasm_reader.of_string
            "OPENQASM 2.0;\nqreg q[1];\nrz(pi/2) q[0];\nrz(-pi/4) q[0];\nrz(3*pi/8) q[0];\nrz(2*(pi+1)) q[0];\n"
        in
        match List.map (fun (i : Circuit.instr) -> i.Circuit.gate) c.Circuit.instrs with
        | [ Qgate.Rz a; Qgate.Rz b; Qgate.Rz c1; Qgate.Rz d ] ->
            Alcotest.(check (float 1e-12)) "pi/2" (Float.pi /. 2.0) a;
            Alcotest.(check (float 1e-12)) "-pi/4" (-.Float.pi /. 4.0) b;
            Alcotest.(check (float 1e-12)) "3pi/8" (3.0 *. Float.pi /. 8.0) c1;
            Alcotest.(check (float 1e-12)) "2(pi+1)" (2.0 *. (Float.pi +. 1.0)) d
        | _ -> Alcotest.fail "wrong gates");
    Alcotest.test_case "comments, barriers and measures are skipped" `Quick (fun () ->
        let c =
          Qasm_reader.of_string
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n// comment\nh q[0]; \nbarrier q[0];\ncx q[0],q[1];\nmeasure q[0] -> c[0];\n"
        in
        Alcotest.(check int) "two gates" 2 (Circuit.length c));
    Alcotest.test_case "u1 and u aliases" `Quick (fun () ->
        let c = Qasm_reader.of_string "qreg q[1];\nu1(0.5) q[0];\nu(0.1,0.2,0.3) q[0];\n" in
        match List.map (fun (i : Circuit.instr) -> i.Circuit.gate) c.Circuit.instrs with
        | [ Qgate.Rz _; Qgate.U3 _ ] -> ()
        | _ -> Alcotest.fail "aliases not handled");
    Alcotest.test_case "errors carry file and line" `Quick (fun () ->
        (match Qasm_reader.of_string ~file:"bad.qasm" "qreg q[1];\nfrobnicate q[0];\n" with
        | exception Qasm_reader.Parse_error ("bad.qasm", 2, c, _) ->
            Alcotest.(check int) "column" 1 c
        | exception Qasm_reader.Parse_error (f, l, _, m) ->
            Alcotest.fail (Printf.sprintf "wrong location %s:%d: %s" f l m)
        | _ -> Alcotest.fail "should have failed");
        (* Without an explicit file the placeholder is used. *)
        match Qasm_reader.of_string "qreg q[1];\nfrobnicate q[0];\n" with
        | exception Qasm_reader.Parse_error ("<string>", 2, _, _) -> ()
        | exception Qasm_reader.Parse_error (f, _, _, _) -> Alcotest.fail ("wrong file " ^ f)
        | _ -> Alcotest.fail "should have failed");
    Alcotest.test_case "of_file errors carry the path" `Quick (fun () ->
        let path = Filename.temp_file "tgates_bad" ".qasm" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let oc = open_out path in
        output_string oc "qreg q[2];\nh q[0];\nnope q[1];\n";
        close_out oc;
        match Qasm_reader.of_file path with
        | exception Qasm_reader.Parse_error (f, 3, _, _) ->
            Alcotest.(check string) "path in error" path f
        | exception Qasm_reader.Parse_error (f, l, _, m) ->
            Alcotest.fail (Printf.sprintf "wrong location %s:%d: %s" f l m)
        | _ -> Alcotest.fail "should have failed");
    Alcotest.test_case "malformed QASM is rejected with locations" `Quick (fun () ->
        let expect_error ~what ~line text =
          match Qasm_reader.of_string text with
          | exception Qasm_reader.Parse_error (_, l, _, _) ->
              Alcotest.(check int) (what ^ " line") line l
          | _ -> Alcotest.fail (what ^ ": should have failed")
        in
        (* Truncated file: the last statement stops mid-expression. *)
        expect_error ~what:"truncated expression" ~line:2 "qreg q[2];\nrz(0.5 q[0];\n";
        expect_error ~what:"unbalanced paren" ~line:2 "qreg q[2];\nrz(0.5 q[0]\n";
        (* Wrong arity, both ways. *)
        expect_error ~what:"h with two qubits" ~line:2 "qreg q[2];\nh q[0],q[1];\n";
        expect_error ~what:"cx with one qubit" ~line:3 "qreg q[2];\nh q[0];\ncx q[0];\n";
        expect_error ~what:"rz without angle" ~line:2 "qreg q[2];\nrz q[0];\n";
        (* Out-of-range and pre-declaration qubits. *)
        expect_error ~what:"qubit out of range" ~line:2 "qreg q[2];\nh q[5];\n";
        expect_error ~what:"gate before qreg" ~line:1 "h q[0];\nqreg q[2];\n";
        expect_error ~what:"duplicate qubit" ~line:2 "qreg q[2];\ncx q[1],q[1];\n";
        expect_error ~what:"zero-size qreg" ~line:1 "qreg q[0];\nh q[0];\n");
  ]

(* The printer's three entry points are one renderer: random
   instructions over every gate constructor, with awkward angles
   (negative, -0.0, subnormal, huge, non-finite) and qubit indices
   across digit-count boundaries, print the same bytes through
   [write_instr], [instr_to_string] and [to_string] — and the same as
   the gate's [Qgate.to_string] followed by its [q[%d]] operands. *)
let gen_angle =
  QCheck2.Gen.(
    oneof
      [
        float_range (-10.0) 10.0;
        oneofl
          [ 0.0; -0.0; 5e-324; -5e-324; 2.2250738585072009e-308; -1e-310; 1e300; -1e300;
            Float.max_float; -.Float.max_float; Float.pi; -.Float.pi /. 4.0; 1e16; 0.1;
            Float.infinity; Float.neg_infinity; Float.nan ];
        map (fun x -> -.x) (float_range 1e3 1e12);
      ])

let gen_qubit = QCheck2.Gen.(oneof [ int_range 0 12; oneofl [ 9; 10; 99; 100; 999; 1000; 1001 ]; int_range 0 100_000 ])

let gen_instr =
  QCheck2.Gen.(
    let* g =
      oneof
        [
          oneofl Qgate.[ H; X; Y; Z; S; Sdg; T; Tdg; CX; CZ; Swap; Ccx ];
          map (fun a -> Qgate.Rx a) gen_angle;
          map (fun a -> Qgate.Ry a) gen_angle;
          map (fun a -> Qgate.Rz a) gen_angle;
          map3 (fun a b c -> Qgate.U3 (a, b, c)) gen_angle gen_angle gen_angle;
        ]
    in
    let* q = gen_qubit and* d1 = int_range 1 1200 and* d2 = int_range 1 1200 in
    let qubits = [| q + d1; q; q + d1 + d2 |] in
    return (Circuit.instr g (Array.sub qubits 0 (Qgate.arity g))))

let reference_line (i : Circuit.instr) =
  Qgate.to_string i.Circuit.gate ^ " "
  ^ String.concat "," (Array.to_list (Array.map (Printf.sprintf "q[%d]") i.Circuit.qubits))
  ^ ";"

let render_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300 ~name:"write_instr, instr_to_string and to_string agree"
         QCheck2.Gen.(pair (int_range 1 200_000) (list_size (int_range 0 40) gen_instr))
         (fun (n, instrs) ->
           let path = Filename.temp_file "tgates_render" ".qasm" in
           Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
           Out_channel.with_open_bin path (fun oc ->
               Qasm.write_header oc n;
               List.iter (Qasm.write_instr oc) instrs);
           let written = In_channel.with_open_bin path In_channel.input_all in
           let header = Printf.sprintf "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[%d];\n" n in
           let lines = String.concat "" (List.map (fun i -> Qasm.instr_to_string i ^ "\n") instrs) in
           List.iter
             (fun i ->
               if Qasm.instr_to_string i <> reference_line i then
                 QCheck2.Test.fail_reportf "%S <> %S" (Qasm.instr_to_string i) (reference_line i))
             instrs;
           written = header ^ lines
           && Qasm.to_string { Circuit.n_qubits = n; instrs } = written));
  ]

let suite = suite @ render_tests
