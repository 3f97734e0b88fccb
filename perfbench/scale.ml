(* online-scale: a live core holding 10^5 jobs, restored through
   Online.Service.live_restore under batched:64 in warm mode, then a
   window of 1024 arrivals a sliver of model time apart.  About 98% of
   these events do not re-solve and pay the O(n) advance /
   min_remaining_time / demand_summary scans; the rest pay the columnar
   re-solve (Incremental.solve_state, Equalize.solve_cols).  Each round
   restores a fresh core, so set-up is measured once per round. *)

open Common

let platform = Model.Platform.paper_default
let live_n = 100_000
let window = 1024
let batch = 64

let config =
  {
    Online.Service.default_config with
    policy = Online.Policy.Batched batch;
    mode = Online.Incremental.Warm;
  }

let persist_of apps =
  let pjobs =
    List.init live_n (fun i ->
        {
          Online.Service.pj_id = i;
          pj_app = apps.(i);
          pj_arrival = 0.;
          pj_remaining = 1.;
          pj_procs = 0.;
          pj_cache = 0.;
          pj_allocated = false;
          pj_epoch = 0;
          pj_migrations = 0;
        })
  in
  {
    Online.Service.p_time = 0.;
    p_next_id = live_n;
    p_busy = 0.;
    p_pending = None;
    p_last_solve = 0.;
    p_last_k = None;
    p_prev_d = 0.;
    p_events_handled = 0;
    p_events_since = 0;
    p_forced = 0;
    p_migrations = 0;
    p_resolves = 0;
    p_solver_iters = 0;
    p_partition_ops = 0;
    p_warm_hits = 0;
    p_cold_fallbacks = 0;
    p_completed = 0;
    p_cancelled = 0;
    p_resp_sum = 0.;
    p_resp_max = neg_infinity;
    p_str_sum = 0.;
    p_str_max = neg_infinity;
    p_jobs = pjobs;
  }

(* Conservation and accounting, summed by the benchmark over the live
   jobs. *)
let check_live ~label lv =
  let st = Online.Service.live_state lv in
  let procs = ref 0. and cache = ref 0. and live = ref 0 in
  Online.State.iter_live st (fun j ->
      incr live;
      procs := !procs +. Online.State.procs j;
      cache := !cache +. Online.State.cache j);
  if !procs > platform.p *. (1. +. 1e-9) then fail "%s: sum p_i = %.17g > p" label !procs;
  if !cache > 1. +. 1e-9 then fail "%s: sum x_i = %.17g > 1" label !cache;
  let m = (Online.Service.live_report lv).metrics in
  if m.jobs <> !live + m.completed + m.cancelled then
    fail "%s: admitted %d <> live %d + completed %d + cancelled %d" label m.jobs !live
      m.completed m.cancelled;
  m

(* Work costs of the live set at its current allocation, position
   indexed, for timing the makespan root finder from outside. *)
let live_columns lv =
  let st = Online.Service.live_state lv in
  let n = Online.State.live_count st in
  let s = Array.make n 0. and c = Array.make n 0. and i = ref 0 in
  Online.State.iter_live st (fun j ->
      let a = Online.State.app j in
      s.(!i) <- a.s;
      c.(!i) <- Online.State.remaining j *. Eq2.cost platform a (Online.State.cache j);
      incr i);
  (s, c, n)

let run ~seed ~seconds =
  let apps = Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.NpbSynth (live_n + window + batch) in
  let setups = Sample.create () and restores = Sample.create () and first = Sample.create () in
  let events = Sample.create () and window_time = ref 0. and windows = ref 0 in
  let resolve_ms = Sample.create () and plain_us = Sample.create () in
  let layer_nonresolve = Sample.create () and layer_resolve = Sample.create () in
  let counts = ref (0, 0, 0) in
  let solve_s = Sample.create () and scan_s = Sample.create () and priced = Sample.create () in
  let round ~traced:tr =
    let t0 = now () in
    let persist = persist_of apps in
    let lv, t_restore =
      timed (fun () ->
          span "online.service.live_restore" (fun () ->
              Online.Service.live_restore ~config ~platform persist))
    in
    let (_ : bool), t_first =
      timed (fun () ->
          span "online.service.first_solve" (fun () -> Online.Service.drain_step lv))
    in
    Sample.add setups (now () -. t0);
    Sample.add restores t_restore;
    Sample.add first t_first;
    let m0 = (Online.Service.live_report lv).metrics in
    let k = match Online.Service.last_makespan lv with Some k -> k | None -> 1. in
    let dt = k *. 1e-7 in
    let w0 = now () in
    for i = 0 to window - 1 do
      incr attempted;
      let epoch = Online.Service.live_epoch lv in
      let t = now () in
      ignore
        (span "online.service.submit" (fun () ->
             Online.Service.submit lv ~at:(Online.Service.live_now lv +. dt) apps.(live_n + i))
          : Online.State.job);
      let d = now () -. t in
      let resolved = Online.Service.live_epoch lv <> epoch in
      if tr then Sample.add (if resolved then layer_resolve else layer_nonresolve) d
      else begin
        Sample.add events (d *. 1e6);
        if resolved then Sample.add resolve_ms (d *. 1e3) else Sample.add plain_us (d *. 1e6)
      end
    done;
    let wall = now () -. w0 in
    if not tr then begin
      window_time := !window_time +. wall;
      incr windows
    end;
    let m = check_live ~label:"online-scale" lv in
    let resolves = m.resolves - m0.resolves in
    if resolves <> window / batch then
      fail "online-scale: %d re-solves in a %d-event window under batched:%d" resolves window
        batch;
    counts := (resolves, m.solver_iters - m0.solver_iters, m.partition_ops - m0.partition_ops);
    if !Common.traced && not tr then begin
      (* The untraced rounds of a traced run time the layers of the next
         re-solve on copies of the core at the window's end (one more
         batch of arrivals, then the warm columnar solve), right after
         the window they model, so both see the host at the same
         speed. *)
      let arrive st =
        for i = 0 to batch - 1 do
          Online.State.advance st ~to_:(Online.State.now st +. dt);
          ignore (Online.State.add st ~app:apps.(live_n + window + i) : Online.State.job)
        done;
        Online.State.now st
      in
      let solve, scans =
        online_layers ~config ~platform ~reps:3 ~dt ~arrive (Online.Service.live_persist lv)
      in
      Sample.add solve_s solve;
      Sample.add scan_s scans;
      Sample.add priced wall
    end;
    if tr then begin
      (* The scans a non-re-solving event pays, timed on the live state
         at n.  Advancing the state by itself puts it ahead of the
         service's clock, so this comes last: the core is not used
         again. *)
      let st = Online.Service.live_state lv in
      for _ = 1 to 20 do
        span "online.state.advance" (fun () ->
            Online.State.advance st ~to_:(Online.State.now st +. dt));
        ignore (span "online.state.queued_running" (fun () ->
            Online.State.queued st + Online.State.running st) : int);
        ignore (span "online.state.min_remaining_time" (fun () ->
            Online.State.min_remaining_time st) : float);
        ignore (span "online.state.demand_summary" (fun () ->
            Online.State.demand_summary st) : float * float * float)
      done;
      let s, c, n = live_columns lv in
      let k = ref 0. in
      for _ = 1 to 5 do
        k := span "sched.equalize.solve_cols" (fun () ->
            Sched.Equalize.solve_cols ~platform ~s ~costs:c ~n ())
      done;
      let mk = Array.init n (fun i -> Model.App.make ~s:s.(i) ~w:c.(i) ~f:0. ~m0:0. ()) in
      check_close ~what:"solve_cols vs bisection" ~tol:1e-9
        (Eq2.equalised platform mk (Array.make n 0.)) !k
    end;
    wall
  in
  let untraced, traced_rounds = run_rounds ~seconds ~min_rounds:2 ~round in
  let ev = Sample.to_array events in
  set_metric "setup_s" (median (Sample.to_array setups));
  set_metric "throughput_per_s" (float_of_int (!windows * window) /. !window_time);
  set_metric "op_p50_us" (quantile ev 0.5);
  set_metric "op_p90_us" (quantile ev 0.9);
  set_metric "phase_ms" (median (Sample.to_array resolve_ms));
  let resolves, iters, ops = !counts in
  set_metric "online.service.restore_s" (median (Sample.to_array restores));
  set_metric "online.service.first_solve_s" (median (Sample.to_array first));
  set_metric "online.event_nonresolve_us" (1e6 *. median (Sample.to_array layer_nonresolve));
  set_metric "online.event_resolve_ms" (1e3 *. median (Sample.to_array layer_resolve));
  set_metric "online.state.advance_us" (layer_median_us "online.state.advance");
  set_metric "online.state.min_remaining_time_us" (layer_median_us "online.state.min_remaining_time");
  set_metric "online.state.demand_summary_us" (layer_median_us "online.state.demand_summary");
  set_metric "online.state.queued_running_us" (layer_median_us "online.state.queued_running");
  set_metric "online.incremental.solve_state_ms" (1e3 *. median (Sample.to_array solve_s));
  set_metric "sched.equalize.solve_cols_ms" (layer_median_us "sched.equalize.solve_cols" /. 1e3);
  set_metric "online.resolves" (float_of_int resolves);
  set_metric "online.solver_iters" (float_of_int iters);
  set_metric "online.partition_ops" (float_of_int ops);
  set_metric "online.solver_iters_per_resolve" (float_of_int iters /. float_of_int (max 1 resolves));
  set_metric "online.partition_ops_per_resolve" (float_of_int ops /. float_of_int (max 1 resolves));
  set_metric "online.live_peak" (float_of_int (live_n + window));
  Printf.printf
    "online-scale: %d live jobs restored, batched:%d warm, %d-arrival window; %d rounds; \
     non-re-solving p50 %.1f us, re-solving p50 %.1f ms (%d samples)\n"
    live_n batch window (Sample.length setups) (median (Sample.to_array plain_us))
    (median (Sample.to_array resolve_ms)) (Sample.length resolve_ms);
  if !Common.traced then begin
    print_self_times ();
    let scans =
      List.fold_left (fun acc l -> acc +. layer_median_us l) 0.
        [
          "online.state.advance"; "online.state.queued_running";
          "online.state.min_remaining_time";
        ]
    in
    Printf.printf
      "O(n) scans per event (advance, queued + running, min_remaining_time): %.1f us of a \
       %.1f us non-re-solving event; demand_summary (%.1f us) runs only under threshold \
       policies\n"
      scans
      (1e6 *. median (Sample.to_array layer_nonresolve))
      (layer_median_us "online.state.demand_summary");
    (* Model of the priced windows from the layers timed after each:
       every event pays the scans, every batch one solve. *)
    let solves = float_of_int (window / batch) in
    reconcile_model ~what:"online-scale window"
      ~parts:
        [
          (Printf.sprintf "%d x scans" window, float_of_int window *. sum (Sample.to_array scan_s));
          (Printf.sprintf "%.0f x solve_state" solves, solves *. sum (Sample.to_array solve_s));
        ]
      ~e2e:(sum (Sample.to_array priced));
    tracing_overhead ~what:"online-scale window" ~untraced ~traced_rounds
  end
