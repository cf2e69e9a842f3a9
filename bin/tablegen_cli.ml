(* Offline gate-set table generator: enumerate a gate set's operators
   up to a T-depth, dedupe by canonical exact unitary, verify the count
   against the descriptor's closed form when known, and persist the
   result as a CRC-framed tgates-table/v1 file that the synthesis
   stack loads with --load-table.

   dune exec bin/tablegen_cli.exe -- --gate-set cliffordt --max-t 3 \
       --out cliffordt-t3.table --verify

   --verify reloads the written file and checks the round trip is
   entry-for-entry identical — for built-in Clifford+T that means
   bit-identical to Ma_table.build. *)

open Cmdliner

let run gate_set gateset_files max_t out verify =
  match
    Robust.guarded @@ fun () ->
    List.iter
      (fun path ->
        match Gateset.load_file path with
        | Ok gs -> Printf.printf "gate set : %s loaded from %s\n" gs.Gateset.name path
        | Error e -> invalid_arg (Printf.sprintf "--gate-set-file %s: %s" path e))
      gateset_files;
    let gs =
      match Gateset.find gate_set with
      | Some gs -> gs
      | None ->
          invalid_arg
            (Printf.sprintf "--gate-set: unknown gate set %S (known: %s)" gate_set
               (String.concat ", " (Gateset.names ())))
    in
    if max_t < 0 then invalid_arg "--max-t must be >= 0";
    let t0 = Obs.Clock.elapsed_s () in
    let table =
      match Tablegen.generate gs ~max_t with
      | Ok t -> t
      | Error e -> invalid_arg ("generation failed: " ^ e)
    in
    Printf.printf "generated: %s max_t=%d — %d entries in %.3f s%s\n" gs.Gateset.name max_t
      (Ma_table.size table)
      (Obs.Clock.elapsed_s () -. t0)
      (match gs.Gateset.closed_count with
      | Some f -> Printf.sprintf " (closed form: %d, verified)" (f max_t)
      | None -> "");
    (match Tablegen.save ~path:out ~gate_set:gs.Gateset.name table with
    | Ok () -> Printf.printf "wrote    : %s (%s)\n" out Tablegen.schema
    | Error e -> invalid_arg ("save failed: " ^ e));
    if verify then begin
      match Tablegen.load out with
      | Error e -> invalid_arg ("verify: reload failed: " ^ e)
      | Ok (name, reloaded) ->
          if name <> gs.Gateset.name then
            invalid_arg
              (Printf.sprintf "verify: file names gate set %S, expected %S" name gs.Gateset.name);
          if not (Ma_table.equal table reloaded) then
            invalid_arg "verify: reloaded table differs from the generated one";
          Printf.printf "verified : round trip is entry-for-entry identical\n"
    end
  with
  | Ok () -> 0
  | Error msg ->
      prerr_endline msg;
      1

let gate_set =
  Arg.(
    value & opt string "cliffordt"
    & info [ "gate-set" ] ~docv:"NAME"
        ~doc:"gate set to enumerate: a built-in name or one loaded with --gate-set-file")

let gateset_files =
  Arg.(
    value
    & opt_all string []
    & info [ "gate-set-file" ] ~docv:"FILE"
        ~doc:"register a gate-set descriptor from a JSON config file (repeatable)")

let max_t =
  Arg.(
    value & opt int 3
    & info [ "max-t" ] ~docv:"N" ~doc:"maximum non-Clifford count to enumerate to")

let out =
  Arg.(
    required
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"output tgates-table/v1 path (written atomically)")

let verify =
  Arg.(
    value & flag
    & info [ "verify" ]
        ~doc:"reload the written file and check the round trip is entry-for-entry identical")

let cmd =
  Cmd.v
    (Cmd.info "tgates-tablegen"
       ~doc:"Generate a gate-set operator table (tgates-table/v1) for the synthesis stack")
    Term.(const run $ gate_set $ gateset_files $ max_t $ out $ verify)

let () = exit (Cmd.eval' cmd)
