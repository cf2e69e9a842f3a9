(* Unit tests for the batch server engine, driven without a process
   boundary: requests go in through [Server.submit_line], responses come
   out through the [emit] callback.  [drain] joins the workers, so after
   it returns every submitted request has exactly one response. *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let make_server ?(cfg = Server.default_config) () =
  let out = ref [] in
  let m = Mutex.create () in
  let emit s =
    Mutex.lock m;
    out := s :: !out;
    Mutex.unlock m
  in
  let t = Server.create ~emit cfg in
  (t, fun () -> List.rev !out)

let cval name = Obs.counter_value (Obs.counter name)

let with_faults spec f =
  match Robust.Fault.parse spec with
  | Ok (seed, specs) -> Robust.Fault.with_faults ?seed specs f
  | Error e -> Alcotest.failf "fault parse: %s" e

let suite =
  [
    Alcotest.test_case "ping, stats and bad requests answer synchronously" `Quick (fun () ->
        let t, out = make_server () in
        Alcotest.(check bool) "ping continues" true (Server.submit_line t {|{"op":"ping","id":7}|} = `Continue);
        ignore (Server.submit_line t {|{"op":"stats"}|});
        ignore (Server.submit_line t "this is not json");
        ignore (Server.submit_line t {|{"op":"frobnicate"}|});
        ignore (Server.submit_line t {|{"op":"rz","theta":0.1,"epsilon":-1.0}|});
        Server.drain t;
        match out () with
        | [ pong; stats; bad1; bad2; bad3 ] ->
            Alcotest.(check bool) "pong" true
              (contains pong {|"op":"ping"|} && contains pong {|"id":7|});
            Alcotest.(check bool) "stats schema" true (contains stats "tgates-server-stats/v1");
            Alcotest.(check bool) "non-json" true (contains bad1 "bad_request");
            Alcotest.(check bool) "unknown op" true (contains bad2 "bad_request");
            Alcotest.(check bool) "bad epsilon" true (contains bad3 "bad_request")
        | rs -> Alcotest.failf "expected 5 responses, got %d" (List.length rs));
    Alcotest.test_case "rz and batch synthesize through the registry" `Quick (fun () ->
        let t, out = make_server () in
        ignore (Server.submit_line t {|{"op":"rz","id":1,"theta":0.37,"epsilon":0.07}|});
        ignore
          (Server.submit_line t
             {|{"op":"batch","id":2,"requests":[{"op":"rz","theta":0.5},{"op":"u3","theta":0.3,"phi":1.1,"lam":-0.7}]}|});
        Server.drain t;
        (match out () with
        | [ r1; r2 ] ->
            Alcotest.(check bool) "rz ok" true (contains r1 {|"ok":true|});
            Alcotest.(check bool) "rz word" true (contains r1 {|"word"|});
            Alcotest.(check bool) "rz source" true
              (contains r1 {|"source":"fresh"|} || contains r1 {|"source":"store"|});
            Alcotest.(check bool) "batch ok" true (contains r2 {|"ok":true|});
            Alcotest.(check bool) "batch results" true (contains r2 {|"results"|});
            Alcotest.(check bool) "batch u3 target" true (contains r2 "u3(")
        | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
        (* Drain is idempotent, and a drained server sheds. *)
        Server.drain t;
        ignore (Server.submit_line t {|{"op":"rz","id":9,"theta":0.1}|});
        match List.rev (out ()) with
        | last :: _ -> Alcotest.(check bool) "shed after drain" true (contains last "overloaded")
        | [] -> Alcotest.fail "no shed response");
    Alcotest.test_case "shutdown op stops the read loop" `Quick (fun () ->
        let t, out = make_server () in
        Alcotest.(check bool) "shutdown stops" true
          (Server.submit_line t {|{"op":"shutdown","id":3}|} = `Stop);
        Server.drain t;
        match out () with
        | [ r ] -> Alcotest.(check bool) "acked" true (contains r {|"ok":true|})
        | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
    Alcotest.test_case "request ids thread through responses, stats and the slowest ring" `Quick
      (fun () ->
        let t, out = make_server () in
        ignore (Server.submit_line t {|{"op":"rz","id":1,"theta":0.37,"epsilon":0.3}|});
        ignore
          (Server.submit_line t
             {|{"op":"batch","id":2,"requests":[{"op":"rz","theta":0.5,"epsilon":0.3},{"op":"rz","theta":1.1,"epsilon":0.3}]}|});
        Server.drain t;
        (match out () with
        | [ r1; r2 ] ->
            Alcotest.(check bool) "rz request_id" true (contains r1 {|"request_id":"r1"|});
            Alcotest.(check bool) "batch request_id" true (contains r2 {|"request_id":"r2"|});
            Alcotest.(check bool) "batch element ids" true
              (contains r2 {|"request_id":"r2.0"|} && contains r2 {|"request_id":"r2.1"|})
        | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
        Alcotest.(check bool) "trace_id nonempty" true (String.length (Server.trace_id t) > 0);
        Alcotest.(check bool) "uptime positive" true (Server.uptime_s t > 0.0);
        (* After drain every worker has recorded its telemetry, so the
           snapshot must reconcile with the traffic just sent. *)
        let stats = Server.stats_json t in
        let num path =
          let rec go j = function
            | [] -> ( match j with Obs.Json.Num f -> f | _ -> Alcotest.fail "not a number")
            | k :: rest -> (
                match Obs.Json.member k j with
                | Some j' -> go j' rest
                | None -> Alcotest.failf "stats field %s missing" k)
          in
          go stats path
        in
        Alcotest.(check int) "latency count" 2 (int_of_float (num [ "latency"; "count" ]));
        Alcotest.(check int) "queue_wait count" 2 (int_of_float (num [ "queue_wait"; "count" ]));
        Alcotest.(check int) "commands.rz" 1 (int_of_float (num [ "commands"; "rz" ]));
        Alcotest.(check int) "commands.batch" 1 (int_of_float (num [ "commands"; "batch" ]));
        Alcotest.(check bool) "quantiles ordered" true
          (num [ "latency"; "p999_s" ] >= num [ "latency"; "p50_s" ]);
        match Obs.Json.member "slowest" stats with
        | Some (Obs.Json.Arr exemplars) ->
            Alcotest.(check int) "slowest ring holds both requests" 2 (List.length exemplars)
        | _ -> Alcotest.fail "stats without slowest array");
    Alcotest.test_case "backend failures answer once with their tag" `Quick (fun () ->
        (* Every backend rung dead: a single and a batch element each run
           the chain once and answer its failure, with no retry field. *)
        with_faults "*=fail,seed=3" @@ fun () ->
        let t, out = make_server () in
        ignore (Server.submit_line t {|{"op":"rz","id":4,"theta":0.37}|});
        ignore
          (Server.submit_line t {|{"op":"batch","id":5,"requests":[{"op":"rz","theta":0.37}]}|});
        Server.drain t;
        match out () with
        | [ r; b ] ->
            Alcotest.(check bool) "single failed" true (contains r {|"ok":false|});
            Alcotest.(check bool) "single tag" true (contains r {|"error":"backend_error"|});
            Alcotest.(check bool) "batch element failed" true (contains b {|"ok":false|});
            Alcotest.(check bool) "batch element tag" true (contains b {|"error":"backend_error"|});
            Alcotest.(check bool) "no retries field" false
              (contains r {|"retries"|} || contains b {|"retries"|})
        | rs -> Alcotest.failf "expected 2 responses, got %d" (List.length rs));
    Alcotest.test_case "rz(theta) and rz(theta+2pi) are one rotation to the server" `Quick
      (fun () ->
        let two_pi = 8.0 *. atan 1.0 in
        let t, out = make_server () in
        let hits0 = cval "obs.planner.dedup_hits" in
        ignore
          (Server.submit_line t
             (Printf.sprintf {|{"op":"batch","id":6,"requests":[{"op":"rz","theta":%.17g},{"op":"rz","theta":%.17g}]}|}
                0.37 (0.37 +. two_pi)));
        Server.drain t;
        Alcotest.(check int) "one pool job" (hits0 + 1) (cval "obs.planner.dedup_hits");
        let engine_id =
          match Stream_compile.classify (Stream_compile.config ()) (Qgate.Rz (0.37 +. two_pi)) with
          | Ok (_, target) -> Store.target_id target
          | Error f -> Alcotest.fail (Robust.failure_to_string f)
        in
        let target j =
          match Obs.Json.member "target" j with
          | Some (Obs.Json.Str s) -> s
          | _ -> Alcotest.fail "element without a target"
        in
        match out () with
        | [ b ] -> (
            match Result.map (Obs.Json.member "results") (Obs.Json.parse b) with
            | Ok (Some (Obs.Json.Arr [ e1; e2 ])) ->
                Alcotest.(check string) "first element is the engine's id" engine_id (target e1);
                Alcotest.(check string) "second element is the engine's id" engine_id (target e2)
            | _ -> Alcotest.failf "expected a two-element batch: %s" b)
        | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
    Alcotest.test_case "a later rung answers and stats.retries counts its fallbacks" `Quick
      (fun () ->
        (* Both GRIDSYNTH rungs of the Rz ladder dead: TRASYN answers,
           and the server's retries total is the response's fallbacks. *)
        with_faults "gridsynth=fail" @@ fun () ->
        let t, out = make_server () in
        let num k j =
          match Obs.Json.member k j with
          | Some (Obs.Json.Num f) -> int_of_float f
          | _ -> Alcotest.failf "field %s missing" k
        in
        let retries0 = num "retries" (Server.stats_json t) in
        ignore (Server.submit_line t {|{"op":"rz","id":7,"theta":0.61,"epsilon":0.1}|});
        Server.drain t;
        match out () with
        | [ r ] -> (
            match Obs.Json.parse r with
            | Ok j ->
                Alcotest.(check bool) "answered" true (Obs.Json.member "ok" j = Some (Obs.Json.Bool true));
                let fallbacks = num "fallbacks" j in
                Alcotest.(check bool) "a later rung answered" true (fallbacks >= 1);
                Alcotest.(check int) "stats.retries grows by the fallbacks" (retries0 + fallbacks)
                  (num "retries" (Server.stats_json t))
            | Error e -> Alcotest.failf "response is not JSON: %s" e)
        | rs -> Alcotest.failf "expected 1 response, got %d" (List.length rs));
  ]
