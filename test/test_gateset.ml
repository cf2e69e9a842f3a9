(* Gate sets as data: descriptor registry and JSON configs, the offline
   table generator's closed-form verification, and the tgates-table/v1
   on-disk format — roundtrip bit-identity with Ma_table.build, and
   structured (never partial) failure on truncation or corruption. *)

let with_tmp f =
  let path = Filename.temp_file "tgates_table" ".table" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> f path)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let generate_exn gs ~max_t =
  match Tablegen.generate gs ~max_t with
  | Ok t -> t
  | Error e -> Alcotest.failf "generate: %s" e

let save_exn ~path ~gate_set table =
  match Tablegen.save ~path ~gate_set table with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %s" e

let load_exn path =
  match Tablegen.load path with
  | Ok r -> r
  | Error e -> Alcotest.failf "load: %s" e

(* ---- Descriptors and registry ---- *)

let test_builtin_registry () =
  Alcotest.(check string) "default is cliffordt" "cliffordt" Gateset.default.Gateset.name;
  (match Gateset.find "cliffordt" with
  | Some gs -> Alcotest.(check int) "full alphabet" 8 (List.length gs.Gateset.generators)
  | None -> Alcotest.fail "cliffordt not registered");
  (match Gateset.find "cliffordt-weighted" with
  | Some gs ->
      Alcotest.(check (float 1e-9)) "T weight" 1.0 (Gateset.gate_weight gs Ctgate.T);
      Alcotest.(check (float 1e-9)) "Tdg weight" 1.25 (Gateset.gate_weight gs Ctgate.Tdg)
  | None -> Alcotest.fail "cliffordt-weighted not registered");
  Alcotest.(check bool) "unknown name" true (Gateset.find "no-such-alphabet" = None);
  Alcotest.(check bool)
    "names sorted and complete" true
    (List.mem "cliffordt" (Gateset.names ()) && List.mem "cliffordt-weighted" (Gateset.names ()))

let test_word_cost () =
  let gs = Gateset.cliffordt in
  let word = Ctgate.[ H; T; S; Tdg; T ] in
  Alcotest.(check (float 1e-9)) "cliffordt cost = T count" 3.0 (Gateset.word_cost gs word);
  let w = Gateset.cliffordt_weighted in
  Alcotest.(check (float 1e-9)) "weighted cost" 3.25 (Gateset.word_cost w word)

let test_of_json () =
  let parse s =
    match Obs.Json.parse s with Ok j -> Gateset.of_json j | Error e -> Error e
  in
  (match
     parse
       {|{"name":"custom","generators":"HSsTt","weights":{"T":1.0,"t":2.0},"enumeration":"bfs"}|}
   with
  | Ok gs ->
      Alcotest.(check string) "name" "custom" gs.Gateset.name;
      Alcotest.(check int) "generators" 5 (List.length gs.Gateset.generators);
      Alcotest.(check (float 1e-9)) "Tdg weight" 2.0 (Gateset.gate_weight gs Ctgate.Tdg);
      Alcotest.(check bool) "bfs enumeration" true (gs.Gateset.enumeration = Gateset.Bfs);
      Alcotest.(check bool)
        "no closed form for sub-alphabet" true
        (gs.Gateset.closed_count = None)
  | Error e -> Alcotest.failf "of_json: %s" e);
  (match parse {|{"generators":"HT"}|} with
  | Ok _ -> Alcotest.fail "descriptor without a name should be rejected"
  | Error _ -> ());
  match parse {|{"name":"bad","generators":"HQ"}|} with
  | Ok _ -> Alcotest.fail "unknown gate char should be rejected"
  | Error _ -> ()

(* ---- Generation ---- *)

let test_closed_form_counts () =
  List.iter
    (fun m ->
      let t = generate_exn Gateset.cliffordt ~max_t:m in
      Alcotest.(check int)
        (Printf.sprintf "cliffordt count at m=%d" m)
        (Ma_table.theoretical_count m) (Ma_table.size t))
    [ 0; 1; 2; 3 ]

(* The BFS closure is generic, but on the full alphabet it must agree
   with the Matsumoto–Amano closed form operator-for-operator. *)
let test_bfs_matches_closed_form () =
  List.iter
    (fun m ->
      let t = generate_exn Gateset.cliffordt_weighted ~max_t:m in
      Alcotest.(check int)
        (Printf.sprintf "bfs count at m=%d" m)
        (Ma_table.theoretical_count m) (Ma_table.size t);
      (* Same operator set as the MA enumeration: every MA entry's
         canonical unitary is present. *)
      let ma = Ma_table.build m in
      for i = 0 to Ma_table.size ma - 1 do
        if Ma_table.find t (Exact_u.of_seq (Ma_table.word ma i)) = None then
          Alcotest.failf "bfs table at m=%d misses an MA operator" m
      done)
    [ 0; 1; 2 ]

(* ---- Roundtrip ---- *)

let test_roundtrip_bit_identical () =
  with_tmp (fun path ->
      let built = Ma_table.build 3 in
      let generated = generate_exn Gateset.cliffordt ~max_t:3 in
      Test_cliffordt.check_same_planes "generate vs build" built generated;
      save_exn ~path ~gate_set:"cliffordt" generated;
      let name, loaded = load_exn path in
      Alcotest.(check string) "gate set name" "cliffordt" name;
      Test_cliffordt.check_same_planes "load vs build" built loaded)

(* A deeper file, loaded straight into planes: every plane equals the
   in-process enumeration's, and so does every lookup. *)
let test_load_depth6_planes () =
  with_tmp (fun path ->
      let built = Ma_table.build 6 in
      save_exn ~path ~gate_set:"cliffordt" built;
      let _, loaded = load_exn path in
      Test_cliffordt.check_same_planes "depth-6 load vs build" built loaded;
      for i = 0 to Ma_table.size built - 1 do
        let u = Exact_u.of_seq (Ma_table.word built i) in
        if Ma_table.find loaded u <> Some i then Alcotest.failf "loaded lookup of entry %d" i
      done)

let test_roundtrip_bfs () =
  with_tmp (fun path ->
      let generated = generate_exn Gateset.cliffordt_weighted ~max_t:2 in
      save_exn ~path ~gate_set:"cliffordt-weighted" generated;
      let name, loaded = load_exn path in
      Alcotest.(check string) "gate set name" "cliffordt-weighted" name;
      Test_cliffordt.check_same_planes "bfs load" generated loaded)

(* ---- Corruption ---- *)

let expect_error what = function
  | Ok _ -> Alcotest.failf "%s: corrupted table loaded successfully" what
  | Error e ->
      if not (String.length e > 0 && String.sub e 0 (String.length Tablegen.schema) = Tablegen.schema)
      then Alcotest.failf "%s: error not schema-tagged: %s" what e

let test_truncated_table () =
  with_tmp (fun path ->
      save_exn ~path ~gate_set:"cliffordt" (generate_exn Gateset.cliffordt ~max_t:1);
      let bytes = read_file path in
      (* Cut mid-payload: the frame reader must report truncation, not
         hand back a partial table. *)
      write_file path (String.sub bytes 0 (String.length bytes - 7));
      expect_error "truncated" (Tablegen.load path))

let test_crc_corrupted_table () =
  with_tmp (fun path ->
      save_exn ~path ~gate_set:"cliffordt" (generate_exn Gateset.cliffordt ~max_t:1);
      let bytes = Bytes.of_string (read_file path) in
      (* Flip a byte inside the last entry's payload (never the final
         newline, never a frame header): CRC must catch it. *)
      let i = Bytes.length bytes - 3 in
      Bytes.set bytes i (if Bytes.get bytes i = 'x' then 'y' else 'x');
      write_file path (Bytes.to_string bytes);
      expect_error "crc" (Tablegen.load path))

let test_trailing_garbage () =
  with_tmp (fun path ->
      save_exn ~path ~gate_set:"cliffordt" (generate_exn Gateset.cliffordt ~max_t:0);
      write_file path (read_file path ^ "extra");
      expect_error "trailing" (Tablegen.load path))

let test_wrong_schema () =
  with_tmp (fun path ->
      write_file path (Tablegen.frame {|{"schema":"tgates-table/v999"}|});
      expect_error "schema" (Tablegen.load path))

let test_absurd_max_t () =
  (* The header passes its CRC; only its depth is out of range.  Each
     must come back as an Error before the depth sizes anything. *)
  List.iter
    (fun max_t ->
      with_tmp (fun path ->
          write_file path
            (Tablegen.frame
               (Printf.sprintf
                  {|{"schema":"tgates-table/v1","gate_set":"cliffordt","max_t":%s,"entries":0}|}
                  max_t));
          expect_error ("max_t " ^ max_t) (Tablegen.load path)))
    [ "61"; "1000000000000000"; "4611686018427387903"; "9223372036854775807"; "-1" ]

(* ---- Provided-table registry ---- *)

let test_provide_and_get_for () =
  let table = generate_exn Gateset.cliffordt_weighted ~max_t:2 in
  Ma_table.provide ~gate_set:"test-provided" table;
  let got = Ma_table.get_for ~gate_set:"test-provided" 2 in
  Test_cliffordt.check_same_planes "exact depth" table got;
  (* Shallower requests are served by memoized truncation... *)
  let t1 = Ma_table.get_for ~gate_set:"test-provided" 1 in
  Alcotest.(check int) "truncated size" (Ma_table.theoretical_count 1) (Ma_table.size t1);
  (* ...deeper ones fail with the regeneration hint... *)
  (match Ma_table.get_for ~gate_set:"test-provided" 5 with
  | exception Failure m ->
      Alcotest.(check bool) "asks for regeneration" true
        (String.length m > 0)
  | _ -> Alcotest.fail "deeper than provided should fail");
  (* ...and a never-provided alphabet fails with the known list. *)
  (match Ma_table.get_for ~gate_set:"never-provided" 1 with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown gate set should fail");
  (* The built-in alphabet never needs providing. *)
  let ct = Ma_table.get_for ~gate_set:"cliffordt" 2 in
  Alcotest.(check int) "builtin fallthrough" (Ma_table.theoretical_count 2) (Ma_table.size ct)

let suite =
  [
    Alcotest.test_case "builtin registry" `Quick test_builtin_registry;
    Alcotest.test_case "word cost" `Quick test_word_cost;
    Alcotest.test_case "descriptor from JSON" `Quick test_of_json;
    Alcotest.test_case "closed-form counts" `Quick test_closed_form_counts;
    Alcotest.test_case "bfs matches closed form" `Quick test_bfs_matches_closed_form;
    Alcotest.test_case "roundtrip bit-identical to build" `Quick test_roundtrip_bit_identical;
    Alcotest.test_case "roundtrip bfs table" `Quick test_roundtrip_bfs;
    Alcotest.test_case "truncated table rejected" `Quick test_truncated_table;
    Alcotest.test_case "CRC corruption rejected" `Quick test_crc_corrupted_table;
    Alcotest.test_case "trailing garbage rejected" `Quick test_trailing_garbage;
    Alcotest.test_case "wrong schema rejected" `Quick test_wrong_schema;
    Alcotest.test_case "out-of-range header max_t rejected" `Quick test_absurd_max_t;
    Alcotest.test_case "provide/get_for registry" `Quick test_provide_and_get_for;
    Alcotest.test_case "depth-6 file loads to build's planes" `Quick test_load_depth6_planes;
  ]
