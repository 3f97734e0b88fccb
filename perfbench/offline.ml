(* offline-portfolio: the paper's own path.  A seeded set of Section 6
   instances goes through all ten Sched.Heuristics policies, the
   speedup-aware Sched.Refine and the Simulator.Coschedule_sim replay of
   every concurrent schedule; 48 cache-pressured perfectly parallel
   n = 24 instances are then certified with Theory.Bnb.  Nothing here
   touches lib/online.

   Every round draws fresh instances from the seed.  B&B difficulty is
   wide between instances (at n = 32 the node count runs from ~2e4 at
   the 10th percentile to ~1.3e5 at the 90th), so a handful of fixed
   instances would make the figures move with the seed; many smaller
   instances per round, new in every round, keep them steady. *)

open Common

let platform = Model.Platform.paper_default
let pressured = Model.Platform.small_llc
let datasets = [ Model.Workload.NpbSynth; Model.Workload.Random ]
let sizes = [ 16; 64; 256 ]
let per_cell = 10
let certify_n = 24
let certify_count = 48
let exact_n = 12
let exact_count = 3

type instance = { apps : Model.App.t array; choice_seed : int }

type inputs = {
  portfolio : instance array;  (* 2 datasets x 3 sizes x 10 = 60 *)
  certify : Model.App.t array array;  (* 48 pressured n = 24 *)
  exact : Model.App.t array array;  (* small extra instances, n = 12 *)
}

let make_inputs seed =
  let rng = Util.Rng.create seed in
  let portfolio =
    List.concat_map
      (fun ds ->
        List.concat_map
          (fun n ->
            List.init per_cell (fun _ ->
                let apps = Model.Workload.generate ~rng ds n in
                { apps; choice_seed = Util.Rng.int rng 1_000_000_000 }))
          sizes)
      datasets
    |> Array.of_list
  in
  let pressured_set k n =
    Array.init k (fun _ ->
        Model.Workload.generate ~fixed_s:0. ~fixed_m0:0.9 ~rng Model.Workload.Random n)
  in
  let certify = pressured_set certify_count certify_n in
  let exact = pressured_set exact_count exact_n in
  { portfolio; certify; exact }

(* What one instance produces: every policy's result, the refinement of
   DominantMinRatio's cache split and one replay per concurrent
   schedule. *)
type outcome = {
  results : Sched.Heuristics.result list;
  refined : Sched.Refine.result;
  x0 : float array;
  sims : (Model.Schedule.t * Simulator.Coschedule_sim.outcome) list;
}

(* One operation of the workload: a policy run, a refinement, a replay. *)
let op f =
  incr attempted;
  f ()

let cache_of (s : Model.Schedule.t) = Array.map (fun a -> a.Model.Schedule.cache) s.allocs

let dominant_min_ratio results =
  match
    List.find_opt
      (fun (r : Sched.Heuristics.result) -> r.policy = Sched.Heuristics.dominant_min_ratio)
      results
  with
  | Some { schedule = Some s; _ } -> s
  | _ -> failwith "offline: DominantMinRatio produced no schedule"

let finish_outcome apps results =
  let x0 = cache_of (dominant_min_ratio results) in
  let refined =
    op (fun () -> span "sched.refine.refine" (fun () -> Sched.Refine.refine ~platform ~apps ~x0 ()))
  in
  let sims =
    List.filter_map
      (fun (r : Sched.Heuristics.result) ->
        Option.map
          (fun s ->
            (s, op (fun () ->
                 span "simulator.coschedule_sim.run" (fun () -> Simulator.Coschedule_sim.run s))))
          r.schedule)
      results
  in
  { results; refined; x0; sims }

(* The untraced path: each policy through Heuristics.run. *)
let solve inst =
  let rng = Util.Rng.create inst.choice_seed in
  let results =
    List.map (fun pol -> op (fun () -> Sched.Heuristics.run ~rng ~platform ~apps:inst.apps pol))
      Sched.Heuristics.all
  in
  finish_outcome inst.apps results

(* The traced path: each policy split into its layer calls, in the same
   order and with the same random draws as Heuristics.run, so the
   results must match it bit for bit. *)
let solve_split inst =
  let apps = inst.apps in
  let rng = Util.Rng.create inst.choice_seed in
  let equalised policy subset x =
    let schedule, makespan =
      span "sched.equalize.schedule" (fun () ->
          let s = Sched.Equalize.schedule ~platform ~apps x in
          (s, Model.Schedule.makespan s))
    in
    { Sched.Heuristics.policy; makespan; schedule = Some schedule; cached = subset }
  in
  let allocation subset =
    span "theory.dominant.cache_allocation" (fun () ->
        Theory.Dominant.cache_allocation_capped ~platform ~apps subset)
  in
  let one (policy : Sched.Heuristics.t) =
    match policy with
    | DominantPartition (strategy, choice) ->
      let subset =
        span "sched.partition_builder.build" (fun () ->
            Sched.Partition_builder.build strategy choice ~rng ~platform ~apps)
      in
      equalised policy (Some subset) (allocation subset)
    | ZeroCache -> equalised policy None (Array.make (Array.length apps) 0.)
    | RandomPart ->
      let subset =
        span "sched.heuristics.baselines" (fun () ->
            Array.init (Array.length apps) (fun _ -> Util.Rng.bool rng))
      in
      equalised policy (Some subset) (allocation subset)
    | AllProcCache | Fair ->
      span "sched.heuristics.baselines" (fun () ->
          Sched.Heuristics.run ~rng ~platform ~apps policy)
  in
  finish_outcome apps (List.map (fun pol -> op (fun () -> one pol)) Sched.Heuristics.all)

let equalising (p : Sched.Heuristics.t) =
  match p with
  | DominantPartition _ | ZeroCache | RandomPart -> true
  | AllProcCache | Fair -> false

(* Every output of one instance against Eq. (2) as written in Eq2. *)
let check_outcome ~label apps o =
  let tol = 1e-9 in
  List.iter
    (fun (r : Sched.Heuristics.result) ->
      let what = Printf.sprintf "%s %s" label (Sched.Heuristics.name r.policy) in
      match r.schedule with
      | None ->
        check_close ~what:(what ^ " = sum Exe_i(p, 1)") ~tol
          (Eq2.all_proc_cache platform apps) r.makespan
      | Some s ->
        let procs = Array.fold_left (fun acc a -> acc +. a.Model.Schedule.procs) 0. s.allocs in
        let cache = Array.fold_left (fun acc a -> acc +. a.Model.Schedule.cache) 0. s.allocs in
        if procs > platform.p *. (1. +. tol) then fail "%s: sum p_i = %.17g > p" what procs;
        if cache > 1. +. tol then fail "%s: sum x_i = %.17g > 1" what cache;
        let finish =
          Array.mapi
            (fun i (a : Model.Schedule.alloc) ->
              if not (a.procs > 0. && a.cache >= 0. && a.cache <= 1.) then
                fail "%s: allocation %d out of range (%g, %g)" what i a.procs a.cache;
              Eq2.exe platform apps.(i) ~p:a.procs ~x:a.cache)
            s.allocs
        in
        if equalising r.policy then
          Array.iteri
            (fun i t ->
              if rel_err t r.makespan > tol then
                fail "%s: app %d finishes at %.17g, makespan %.17g (Lemma 1)" what i t
                  r.makespan)
            finish
        else
          check_close ~what:(what ^ " makespan") ~tol
            (Array.fold_left Float.max 0. finish)
            r.makespan)
    o.results;
  List.iter
    (fun ((s : Model.Schedule.t), (sim : Simulator.Coschedule_sim.outcome)) ->
      check_close ~what:(label ^ " simulator makespan") ~tol
        (Array.fold_left Float.max 0.
           (Array.mapi
              (fun i (a : Model.Schedule.alloc) ->
                Eq2.exe platform apps.(i) ~p:a.procs ~x:a.cache)
              s.allocs))
        sim.makespan)
    o.sims;
  let r = o.refined in
  let xs = Array.fold_left ( +. ) 0. r.x in
  if xs > 1. +. tol then fail "%s refine: sum x_i = %.17g > 1" label xs;
  if r.makespan > Eq2.equalised platform apps o.x0 *. (1. +. tol) then
    fail "%s refine: degraded its starting point" label;
  check_close ~what:(label ^ " refined makespan") ~tol (Eq2.equalised platform apps r.x)
    r.makespan

let makespans o =
  List.map (fun (r : Sched.Heuristics.result) -> r.makespan) o.results
  @ [ o.refined.makespan ]
  @ List.map (fun (_, (s : Simulator.Coschedule_sim.outcome)) -> s.makespan) o.sims

let certify_one apps = Theory.Bnb.solve ~platform:pressured ~apps ()

let check_certified ~label apps (b : Theory.Bnb.result) =
  if b.verdict <> Theory.Bnb.Certified then fail "%s: B&B not certified" label;
  check_close ~what:(label ^ " B&B optimum vs Lemma 3") ~tol:1e-9
    (Eq2.lemma3 pressured apps b.x) b.makespan;
  let rng = Util.Rng.create 1 in
  List.iter
    (fun pol ->
      (* AllProcCache runs the applications one after the other with the
         whole platform each; with perfectly parallel applications that
         is below every co-schedule, so it bounds nothing here. *)
      if pol <> Sched.Heuristics.AllProcCache then begin
        let h = Sched.Heuristics.run ~rng ~platform:pressured ~apps pol in
        if b.makespan > h.makespan *. (1. +. 1e-9) then
          fail "%s: B&B optimum %.17g above %s's %.17g" label b.makespan
            (Sched.Heuristics.name pol) h.makespan
      end)
    Sched.Heuristics.all

let run ~seed ~seconds =
  (* Round r draws its own instances from (seed, r), so one run covers
     several input sets and its figures do not hang on a few hard
     instances.  A traced run repeats one set, so that its traced and
     untraced rounds time the same work. *)
  let round_seed r = (seed * 7919) + if !Common.traced then 0 else r in
  let setups = Sample.create () in
  let port_time = ref 0. and port_count = ref 0 in
  let cert_ms = Sample.create () in
  let nodes = ref 0 and nodes_time = ref 0. and certified = ref 0 in
  let rounds = ref 0 and instance_us = Sample.create () in
  let round ~traced:tr =
    let inputs = set_up setups ~times:4 (fun () -> make_inputs (round_seed !rounds)) in
    incr rounds;
    let t0 = now () in
    let outcomes =
      Array.map
        (fun inst ->
          if tr then solve_split inst
          else begin
            let o, t = timed (fun () -> solve inst) in
            Sample.add instance_us (t *. 1e6);
            o
          end)
        inputs.portfolio
    in
    let t_port = now () -. t0 in
    let t1 = now () in
    let bnb =
      Array.map
        (fun apps ->
          incr attempted;
          let b, t = timed (fun () -> span "theory.bnb.solve" (fun () -> certify_one apps)) in
          if not tr then Sample.add cert_ms (t *. 1e3);
          b)
        inputs.certify
    in
    let t_cert = now () -. t1 in
    if not tr then begin
      port_time := !port_time +. t_port;
      port_count := !port_count + Array.length outcomes
    end;
    Array.iter (fun (b : Theory.Bnb.result) -> nodes := !nodes + b.stats.nodes) bnb;
    nodes_time := !nodes_time +. t_cert;
    certified := !certified + Array.length bnb;
    (* Output checks, outside the timed region. *)
    Array.iteri
      (fun i o ->
        let inst = inputs.portfolio.(i) in
        let label = Printf.sprintf "round %d instance %d" !rounds i in
        check_outcome ~label inst.apps o;
        let reference () =
          (* The check's own Heuristics.run calls are not workload operations. *)
          let counted = !attempted in
          let r = unspanned (fun () -> solve inst) in
          attempted := counted;
          r
        in
        if tr && makespans o <> makespans (reference ()) then
          fail "%s: split layer calls differ from Heuristics.run" label)
      outcomes;
    Array.iteri
      (fun i b ->
        check_certified ~label:(Printf.sprintf "round %d pressured %d" !rounds i)
          inputs.certify.(i) b)
      bnb;
    Array.iteri
      (fun i apps ->
        let b = Theory.Bnb.solve ~platform:pressured ~apps () in
        let e = Theory.Exact.optimal ~platform:pressured ~apps () in
        if b.makespan <> e.makespan then
          fail "round %d small %d: B&B %.17g differs from Exact %.17g" !rounds i b.makespan
            e.makespan)
      inputs.exact;
    t_port +. t_cert
  in
  let untraced, traced_rounds = run_rounds ~seconds ~min_rounds:3 ~round in
  (* Quantiles over instances, not over single operations: the operations
     of an instance range from a few microseconds (the baselines) to
     milliseconds (a replay at n = 256), and the median operation jumped
     between ~120 and ~155 us from run to run while the instance rate
     held within 5%.  Instances come in three sizes, a third each, so the
     median instance is one of size 64 and the 90th percentile one of
     size 256. *)
  let ops = Sample.to_array instance_us in
  set_metric "setup_s" (median (Sample.to_array setups));
  set_metric "throughput_per_s" (float_of_int !port_count /. !port_time);
  set_metric "op_p50_us" (quantile ops 0.5);
  set_metric "op_p90_us" (quantile ops 0.9);
  (* The median instance: B&B node counts are heavy-tailed, so a mean
     over a run's instances follows its few hardest ones. *)
  set_metric "phase_ms" (median (Sample.to_array cert_ms));
  let per_round name =
    layer_total_us name /. 1e3 /. float_of_int (max 1 (Array.length traced_rounds))
  in
  List.iter
    (fun (metric, span_name) -> set_metric metric (per_round span_name))
    [
      ("sched.partition_builder.build_ms", "sched.partition_builder.build");
      ("theory.dominant.cache_allocation_ms", "theory.dominant.cache_allocation");
      ("sched.equalize.schedule_ms", "sched.equalize.schedule");
      ("sched.refine.refine_ms", "sched.refine.refine");
      ("simulator.coschedule_sim.run_ms", "simulator.coschedule_sim.run");
      ("sched.heuristics.baselines_ms", "sched.heuristics.baselines");
    ];
  set_metric "theory.bnb.nodes" (float_of_int !nodes /. float_of_int (max 1 !certified));
  set_metric "theory.bnb.nodes_per_s" (float_of_int !nodes /. !nodes_time);
  Printf.printf
    "offline-portfolio: per round %d fresh instances (n in 16/64/256, NPB-SYNTH and RANDOM) \
     x %d policies + refine + replay, %d pressured n=%d B&B certifications; %d rounds, \
     %.0f B&B nodes per instance\n"
    (List.length datasets * List.length sizes * per_cell)
    (List.length Sched.Heuristics.all) certify_count certify_n !rounds
    (float_of_int !nodes /. float_of_int (max 1 !certified));
  if !Common.traced then begin
    print_self_times ();
    reconcile ~what:"offline-portfolio"
      ~layers:
        [
          "sched.partition_builder.build"; "theory.dominant.cache_allocation";
          "sched.equalize.schedule"; "sched.refine.refine";
          "simulator.coschedule_sim.run"; "sched.heuristics.baselines";
          "theory.bnb.solve";
        ]
      ~untraced ~traced_rounds
  end
