(* Provenance stamped on every result: what was measured, built how,
   on how many cores.  A checkout without .git records no commit. *)

let first_line s = match String.split_on_char '\n' s with l :: _ -> String.trim l | [] -> ""

(* [git] output, or None when git or the repository is absent. *)
let git ~work args =
  if not (Sys.file_exists ".git") then None
  else
    match Pb_proc.run ~out:(Filename.concat work "git.out") (Array.of_list ("git" :: args)) with
    | _, s -> Some s
    | exception (Pb_proc.Child_failed _ | Unix.Unix_error _) -> None

let json ~work ~workload ~seed ~seconds ~trace =
  let open Obs.Json in
  let commit = Option.map first_line (git ~work [ "rev-parse"; "HEAD" ]) in
  let dirty =
    Option.map
      (fun s -> String.trim s <> "")
      (git ~work [ "status"; "--porcelain"; "--untracked-files=no" ])
  in
  Obj
    [
      ("schema", Str "tgates-perfbench-provenance/v1");
      ("git_commit", match commit with Some c -> Str c | None -> Null);
      ("git_dirty", match dirty with Some d -> Bool d | None -> Null);
      ("dune_profile", Str Pb_build.profile);
      ("nproc", Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Str Sys.ocaml_version);
      ("workload", Str workload);
      ("seed", Num (float_of_int seed));
      ("seconds", Num (float_of_int seconds));
      ("trace", Bool trace);
    ]
