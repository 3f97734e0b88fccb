(* The cosched benchmark: one workload per run, chosen by --workload,
   inputs drawn from --seed, measured for --seconds, per-layer spans
   with --trace 1.  The last line of standard output is
   {correct, attempted, failed, measured}, [measured] holding every
   metric the workload set; run.py builds the program and this
   executable, runs it, and turns that line into the result object with
   the metrics and units BENCHMARK.json names. *)

let workloads =
  [
    ("offline-portfolio", fun ~seed ~seconds ~daemon:_ -> Offline.run ~seed ~seconds);
    ("online-scale", fun ~seed ~seconds ~daemon:_ -> Scale.run ~seed ~seconds);
    ("online-churn", fun ~seed ~seconds ~daemon:_ -> Churn.run ~seed ~seconds);
    ("serve-journal", fun ~seed ~seconds ~daemon -> Serve_wl.run ~seed ~seconds ~daemon);
  ]

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let daemon = ref ".bench_build/default/bin/cosched.exe" in
  let os = ref "unknown" and commit = ref "unknown" in
  let out = ref ".bench_out" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer spans");
      ("--daemon", Arg.Set_string daemon, "PATH cosched executable (serve-journal)");
      ("--out", Arg.Set_string out, "DIR traces and scratch directories");
      ("--os", Arg.Set_string os, "TEXT operating system, for the run record");
      ("--commit", Arg.Set_string commit, "TEXT program version, for the run record");
    ]
  in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) "bench [options]";
  let run =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  if !trace <> 0 && !trace <> 1 then (prerr_endline "--trace takes 0 or 1"; exit 2);
  if not (!seconds > 0.) then (prerr_endline "--seconds must be positive"; exit 2);
  Common.traced := !trace = 1;
  Common.trace_dir := !out;
  Common.trace_label := Printf.sprintf "%s-%d" !workload !seed;
  Printf.printf "run: {\"workload\":%s,\"seed\":%d,\"seconds\":%s,\"trace\":%d,\"cores\":%d,\"ocaml\":%s,\"os\":%s,\"commit\":%s}\n%!"
    (json_string !workload) !seed (json_number !seconds) !trace
    (Domain.recommended_domain_count ())
    (json_string Sys.ocaml_version) (json_string !os) (json_string !commit);
  run ~seed:!seed ~seconds:!seconds ~daemon:!daemon;
  let metrics =
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) Common.metrics []
    |> List.sort compare
    |> List.map (fun (name, v) -> Printf.sprintf "%s:%s" (json_string name) (json_number v))
  in
  let correct = !Common.failures = 0 in
  if not correct then begin
    Printf.eprintf "%d output check(s) failed:\n" !Common.failures;
    List.iter (fun m -> prerr_endline ("  " ^ m)) (List.rev !Common.failure_log)
  end;
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"measured\":{%s}}\n" correct
    !Common.attempted !Common.op_failed (String.concat "," metrics)
