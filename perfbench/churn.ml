(* online-churn: a heavy-tailed stream (Poisson arrivals at load 4 from
   Stats.Scenario, Pareto job sizes on NPB-SYNTH applications, a seeded
   tenth of the jobs cancelled some time after arrival) driven event by
   event through Online.Service.submit / cancel under every-event, then
   drained.  Every effective event re-solves at a live set of a few
   hundred jobs, so the re-solve dominates and the O(n) scans of
   online-scale hardly show.

   The Pareto shape is 2.5: at 1.5 (infinite variance) a single stream's
   backlog reached 3 500 live jobs on some seeds and not on others, and
   the tail latency followed the seed rather than the program. *)

open Common

let platform = Model.Platform.paper_default
let jobs = 4_000
let cancel_share = 0.1
let scenario = "poisson:rate=4"
let sizes = "pareto:a=2.5,xm=1e10"
let config = { Online.Service.default_config with policy = Online.Policy.Every_event }

type op = Submit of float * Model.App.t | Cancel of float * int

(* The seeded stream as the service sees it: arrivals from the
   scenario, departures of the [i]-th arrival merged in time order. *)
let build seed =
  let rng = Util.Rng.create seed in
  let stream =
    Online.Workload_stream.scenario_load ~rng ~platform
      ~sizes:(Stats.Dist.of_string sizes)
      ~scenario:(Stats.Scenario.of_string scenario)
      ~dataset:Model.Workload.NpbSynth jobs
  in
  let horizon = Online.Workload_stream.horizon stream in
  let mean_gap = horizon /. float_of_int jobs in
  let arrivals =
    List.filter_map
      (fun (e : Online.Workload_stream.event) ->
        match e.kind with Arrival a -> Some (e.time, a) | Departure _ -> None)
      (Online.Workload_stream.events stream)
  in
  let departures =
    List.concat
      (List.mapi
         (fun i (t, _) ->
           let draw = Util.Rng.float rng 1. and delay = Util.Rng.uniform rng 0.1 16. in
           (* Departures past the last arrival are dropped, so the stream
              ends with a live set for the drain to finish. *)
           if draw < cancel_share && t +. (delay *. mean_gap) <= horizon then
             [ { Online.Workload_stream.time = t +. (delay *. mean_gap); kind = Departure i } ]
           else [])
         arrivals)
  in
  let merged =
    List.stable_sort
      (fun (a : Online.Workload_stream.event) b -> Float.compare a.time b.time)
      (List.map (fun (t, a) -> { Online.Workload_stream.time = t; kind = Arrival a }) arrivals
      @ departures)
  in
  let validated = Online.Workload_stream.of_events merged in
  Array.of_list
    (List.map
       (fun (e : Online.Workload_stream.event) ->
         match e.kind with Arrival a -> Submit (e.time, a) | Departure i -> Cancel (e.time, i))
       (Online.Workload_stream.events validated))

let op_time ops i = match ops.(i) with Submit (at, _) | Cancel (at, _) -> at

let check_conservation lv =
  let procs = ref 0. and cache = ref 0. in
  Online.State.iter_live (Online.Service.live_state lv) (fun j ->
      procs := !procs +. Online.State.procs j;
      cache := !cache +. Online.State.cache j);
  if !procs > platform.p *. (1. +. 1e-9) then fail "online-churn: sum p_i = %.17g > p" !procs;
  if !cache > 1. +. 1e-9 then fail "online-churn: sum x_i = %.17g > 1" !cache

let check_drained lv =
  let r = Online.Service.live_report lv in
  let m = r.metrics in
  let live = Online.State.live_count (Online.Service.live_state lv) in
  if live <> 0 || m.jobs <> m.completed + m.cancelled then
    fail "online-churn: after drain %d live, admitted %d <> completed %d + cancelled %d" live
      m.jobs m.completed m.cancelled;
  List.iter
    (fun j ->
      match Online.State.finish j with
      | Some t ->
        let alone = Eq2.exe platform (Online.State.app j) ~p:platform.p ~x:1. in
        let resp = t -. Online.State.arrival j in
        if resp < alone *. (1. -. 1e-9) then
          fail "online-churn: job %d responded in %.17g, below its alone time %.17g"
            (Online.State.id j) resp alone
      | None ->
        if not (Online.State.cancelled j) then
          fail "online-churn: job %d neither completed nor cancelled" (Online.State.id j))
    r.jobs;
  m

let run ~seed ~seconds =
  (* Round r serves its own stream, drawn from (seed, r): one run covers
     many streams, so no single stream sets its figures.  A traced run
     repeats one stream, so that its traced and untraced rounds time the
     same work. *)
  let round_seed r = (seed * 7919) + if !Common.traced then 0 else r in
  let builds = Sample.create () in
  let ev_us = Sample.create () and stream_ms = Sample.create () in
  let submit_us = Sample.create () and cancel_us = Sample.create () in
  let layer_drain = Sample.create () and peaks = Sample.create () in
  let feed_time = ref 0. and fed = ref 0 in
  let resolves = ref 0 and iters = ref 0 and pops = ref 0 and warm = ref 0 in
  let completed = ref 0 and cancelled = ref 0 and rounds = ref 0 in
  let plain_feed = Sample.create () and models = Sample.create () in
  let solve_s = Sample.create () in
  let round ~traced:tr =
    let ops = set_up builds ~times:1 (fun () -> build (round_seed !rounds)) in
    incr rounds;
    let lv = Online.Service.live_create ~config ~platform () in
    let peak = ref 0 and cancels = ref 0 in
    (* Every other untraced round of a traced run prices each stretch
       of 256 events from layers timed on copies of the core where the
       stretch begins: every event re-solves, so a stretch costs its
       re-solves times one solve plus the scans an event pays.  The
       rounds in between feed the same stream unpriced, so the model is
       held against feeds whose caches the copies did not disturb, run
       at about the same time. *)
    let pricing = !Common.traced && (not tr) && !rounds land 1 = 0 in
    (* The mean time between events, by which a priced copy advances. *)
    let gap = op_time ops (Array.length ops - 1) /. float_of_int (Array.length ops) in
    let model = ref 0. and priced = ref None and aside = ref 0. in
    let price_to epoch =
      match !priced with
      | Some (e0, per_resolve) -> model := !model +. (float_of_int (epoch - e0) *. per_resolve)
      | None -> ()
    in
    let t0 = now () in
    Array.iteri
      (fun i op ->
        incr attempted;
        let t = now () in
        (match op with
        | Submit (at, app) ->
          ignore
            (span "online.service.submit" (fun () -> Online.Service.submit lv ~at app)
              : Online.State.job)
        | Cancel (at, id) ->
          let ok = span "online.service.cancel" (fun () -> Online.Service.cancel lv ~at ~id) in
          (* A refused cancel is right only for a job that had already
             finished. *)
          (match Online.Service.find_job lv id with
          | Some j when ok && Online.State.cancelled j -> incr cancels
          | Some j when (not ok) && Online.State.finish j <> None -> ()
          | _ ->
            incr op_failed;
            fail "online-churn: cancel of job %d returned %b" id ok));
        let d = (now () -. t) *. 1e6 in
        if tr then Sample.add (match op with Submit _ -> submit_us | Cancel _ -> cancel_us) d
        else Sample.add ev_us d;
        if i land 255 = 0 then begin
          let live = Online.State.live_count (Online.Service.live_state lv) in
          peak := max !peak live;
          check_conservation lv;
          if pricing && live > 0 && i + 1 < Array.length ops then begin
            let t = now () in
            let epoch = Online.Service.live_epoch lv in
            price_to epoch;
            let arrive st =
              match ops.(i + 1) with
              | Submit (at, app) ->
                Online.State.advance st ~to_:at;
                ignore (Online.State.add st ~app : Online.State.job);
                at
              | Cancel (at, _) ->
                Online.State.advance st ~to_:at;
                at
            in
            let solve, scans =
              online_layers ~config ~platform ~reps:3 ~dt:gap ~arrive
                (Online.Service.live_persist lv)
            in
            Sample.add solve_s solve;
            priced := Some (epoch, solve +. scans);
            aside := !aside +. (now () -. t)
          end
        end)
      ops;
    let t_feed = now () -. t0 -. !aside in
    if pricing then begin
      price_to (Online.Service.live_epoch lv);
      Sample.add models !model
    end
    else if not tr then Sample.add plain_feed t_feed;
    if !cancels = 0 then fail "online-churn: a stream cancelled no job";
    let left = Online.State.live_count (Online.Service.live_state lv) in
    if left = 0 then fail "online-churn: nothing left to drain";
    incr attempted;
    let (), t_drain =
      timed (fun () -> span "online.service.drain" (fun () -> Online.Service.drain lv))
    in
    if tr then Sample.add layer_drain (t_drain *. 1e3)
    else begin
      feed_time := !feed_time +. t_feed;
      fed := !fed + Array.length ops;
      Sample.add stream_ms ((t_feed +. t_drain) *. 1e3)
    end;
    let m = check_drained lv in
    Sample.add peaks (float_of_int !peak);
    resolves := !resolves + m.resolves;
    iters := !iters + m.solver_iters;
    pops := !pops + m.partition_ops;
    warm := !warm + m.warm_hits;
    completed := !completed + m.completed;
    cancelled := !cancelled + m.cancelled;
    t_feed +. t_drain
  in
  let untraced, traced_rounds = run_rounds ~seconds ~min_rounds:3 ~round in
  let ev = Sample.to_array ev_us in
  set_metric "setup_s" (median (Sample.to_array builds));
  set_metric "throughput_per_s" (float_of_int !fed /. !feed_time);
  set_metric "op_p50_us" (quantile ev 0.5);
  set_metric "op_p90_us" (quantile ev 0.9);
  set_metric "phase_ms" (median (Sample.to_array stream_ms));
  let per_resolve x = float_of_int x /. float_of_int (max 1 !resolves) in
  let per_round x = float_of_int x /. float_of_int (max 1 !rounds) in
  set_metric "online.service.submit_us" (median (Sample.to_array submit_us));
  set_metric "online.service.cancel_us" (median (Sample.to_array cancel_us));
  set_metric "online.service.drain_ms" (median (Sample.to_array layer_drain));
  set_metric "online.resolves" (per_round !resolves);
  set_metric "online.solver_iters" (per_round !iters);
  set_metric "online.partition_ops" (per_round !pops);
  set_metric "online.solver_iters_per_resolve" (per_resolve !iters);
  set_metric "online.partition_ops_per_resolve" (per_resolve !pops);
  set_metric "online.warm_hit_ratio" (per_resolve !warm);
  set_metric "online.live_peak" (median (Sample.to_array peaks));
  set_metric "stats.stream_build_ms" (1e3 *. median (Sample.to_array builds));
  set_metric "online.incremental.solve_state_ms" (1e3 *. median (Sample.to_array solve_s));
  Printf.printf
    "online-churn: per round a fresh stream of %d jobs (%s arrivals, %s sizes, %.0f%% \
     cancel draws) then drain; %d rounds, %.0f completed and %.0f cancelled per round, \
     live peak p50 %.0f max %.0f\n"
    jobs scenario sizes (100. *. cancel_share) !rounds (per_round !completed)
    (per_round !cancelled) (median (Sample.to_array peaks))
    (quantile (Sample.to_array peaks) 1.);
  if !Common.traced then begin
    print_self_times ();
    reconcile_model ~what:"online-churn feed"
      ~parts:[ ("re-solves x (solve_state + scans)", median (Sample.to_array models)) ]
      ~e2e:(median (Sample.to_array plain_feed));
    tracing_overhead ~what:"online-churn" ~untraced ~traced_rounds
  end
