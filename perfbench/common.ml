(* Shared plumbing of the benchmark: the monotonic clock, order
   statistics, the correctness ledger, the operation counters, the
   metric table every workload fills in, and the traced mode's layer
   spans with their self-time accounting. *)

let now () = Int64.to_float (Obs.Clock.now_ns ()) *. 1e-9

(* [timed f] is [(f (), seconds)]. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* --- order statistics -------------------------------------------------- *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Quantile with linear interpolation between order statistics (the
   "type 7" rule); [nan] on an empty sample. *)
let quantile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let h = q *. float_of_int (n - 1) in
    let i = int_of_float (Float.floor h) in
    if i >= n - 1 then a.(n - 1)
    else a.(i) +. ((h -. float_of_int i) *. (a.(i + 1) -. a.(i)))

let median xs = quantile xs 0.5
let sum xs = Array.fold_left ( +. ) 0. xs

(* A growable float sample. *)
module Sample = struct
  type t = { mutable data : float array; mutable len : int }

  let create () = { data = Array.make 64 0.; len = 0 }

  let add t x =
    if t.len = Array.length t.data then begin
      let d = Array.make (2 * t.len) 0. in
      Array.blit t.data 0 d 0 t.len;
      t.data <- d
    end;
    t.data.(t.len) <- x;
    t.len <- t.len + 1

  let to_array t = Array.sub t.data 0 t.len
  let length t = t.len
end

(* --- correctness ledger and operation counters ------------------------- *)

let failures = ref 0
let failure_log = ref []

(* Record a failed output check; the run then reports [correct: false]. *)
let fail fmt =
  Printf.ksprintf
    (fun m ->
      incr failures;
      if !failures <= 20 then failure_log := m :: !failure_log)
    fmt

let rel_err a b =
  if a = b then 0. else Float.abs (a -. b) /. Float.max (Float.abs a) (Float.abs b)

(* [check_close ~what ~tol expected got] fails when the relative error
   exceeds [tol]. *)
let check_close ~what ~tol expected got =
  let e = rel_err expected got in
  if not (e <= tol) then
    fail "%s: %.17g vs %.17g (relative error %.3g > %.3g)" what expected got e
      tol

let attempted = ref 0
let op_failed = ref 0

(* --- metric table ------------------------------------------------------- *)

let metrics : (string, float) Hashtbl.t = Hashtbl.create 64
let set_metric name v = Hashtbl.replace metrics name v

(* --- traced mode: layer spans ------------------------------------------- *)

let traced = ref false

(* Names of the spans this benchmark opens around layer calls (the
   library opens its own spans too when probes are on; those land in the
   Chrome trace but not in the layer accounting). *)
let layer_names : (string, unit) Hashtbl.t = Hashtbl.create 32

let span name f =
  if !traced then begin
    Hashtbl.replace layer_names name ();
    Obs.Span.with_span name f
  end
  else f ()

(* Run [f] without opening layer spans (output checks inside a traced
   round are not layer work). *)
let unspanned f =
  let was = !traced in
  traced := false;
  Fun.protect ~finally:(fun () -> traced := was) f

(* Self time per benchmark span: its duration minus the benchmark spans
   directly nested in it.  Returns [(name, self_us)] in span order. *)
let self_times () =
  let evs =
    Obs.Span.events ()
    |> Array.to_list
    |> List.filter (fun (e : Obs.Span.event) -> Hashtbl.mem layer_names e.name)
  in
  let stack = ref [] in
  let selfs = List.map (fun (e : Obs.Span.event) -> (e, ref e.dur_us)) evs in
  List.iter
    (fun ((e : Obs.Span.event), _ as cell) ->
      let rec pop () =
        match !stack with
        | ((p : Obs.Span.event), _) :: rest
          when p.tid <> e.tid || p.ts_us +. p.dur_us <= e.ts_us ->
          stack := rest;
          pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | (_, parent_self) :: _ -> parent_self := !parent_self -. e.dur_us
      | [] -> ());
      stack := cell :: !stack)
    selfs;
  List.map (fun ((e : Obs.Span.event), s) -> (e.name, !s)) selfs

(* Per-layer samples accumulated over the traced rounds: every span's
   self time (microseconds), by name. *)
let layer_samples : (string, Sample.t) Hashtbl.t = Hashtbl.create 32

let layer_sample name =
  match Hashtbl.find_opt layer_samples name with
  | Some s -> s
  | None ->
    let s = Sample.create () in
    Hashtbl.replace layer_samples name s;
    s

let trace_dir = ref ".bench_out"
let trace_label = ref "run"
let trace_written = ref false

(* Fold the spans collected since the last harvest into [layer_samples],
   write the first harvest's spans (library spans included) as a Chrome
   trace that must pass the library's validator, and reset the
   collector so memory stays bounded however long the run. *)
let harvest () =
  if !traced then begin
    List.iter (fun (name, us) -> Sample.add (layer_sample name) us) (self_times ());
    if not !trace_written then begin
      trace_written := true;
      let json = Obs.Trace_json.to_chrome (Obs.Span.events ()) in
      match Obs.Trace_json.validate_chrome json with
      | n ->
        (try Unix.mkdir !trace_dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
        let path =
          Filename.concat !trace_dir (Printf.sprintf "trace-%s.json" !trace_label)
        in
        Obs.Trace_json.write ~path json;
        Printf.printf "trace: %d events written to %s\n" n path
      | exception Failure m -> fail "Chrome trace failed validation: %s" m
    end;
    Obs.Span.reset ()
  end

let layer_values name =
  match Hashtbl.find_opt layer_samples name with
  | Some s -> Sample.to_array s
  | None -> [||]

let layer_total_us name = sum (layer_values name)
let layer_median_us name = match layer_values name with [||] -> 0. | a -> median a

(* The self-time table printed by every traced run. *)
let print_self_times () =
  let rows =
    Hashtbl.fold (fun name s acc -> (name, Sample.to_array s) :: acc) layer_samples []
    |> List.sort (fun (_, a) (_, b) -> Float.compare (sum b) (sum a))
  in
  Printf.printf "%-40s %10s %14s %12s\n" "layer span" "calls" "self total ms"
    "self p50 us";
  List.iter
    (fun (name, a) ->
      Printf.printf "%-40s %10d %14.3f %12.2f\n" name (Array.length a)
        (sum a /. 1e3) (median a))
    rows

(* [set_up setups ~times f] builds a round's inputs [times] times, adding
   each build's seconds to [setups], and returns the last build.  The
   workloads sample set-up in every round, so its median spans the whole
   run: on a shared host the same build runs at two speeds some 1.8x
   apart that alternate every few seconds, and builds timed together at
   the start of a run would all land in one of them. *)
let set_up setups ~times f =
  let rec go k =
    let r, t = timed f in
    Sample.add setups t;
    if k <= 1 then r else go (k - 1)
  in
  go times

(* Round loop shared by the workloads: run [round] until [seconds] of
   measured time have passed (at least [min_rounds] times).  In traced
   mode the first third of the time runs with probes off, giving the
   untraced reference for the overhead figure, and the rest with probes
   on; [round ~traced] returns its own end-to-end seconds. *)
let run_rounds ~seconds ~min_rounds ~(round : traced:bool -> float) =
  let plain = Sample.create () and with_spans = Sample.create () in
  let t0 = now () in
  let elapsed () = now () -. t0 in
  if not !traced then begin
    while elapsed () < seconds || Sample.length plain < min_rounds do
      Sample.add plain (round ~traced:false)
    done
  end
  else begin
    while elapsed () < seconds /. 3. || Sample.length plain < 1 do
      Sample.add plain (round ~traced:false)
    done;
    Obs.Probe.enable ();
    while elapsed () < seconds || Sample.length with_spans < min_rounds do
      Sample.add with_spans (round ~traced:true);
      harvest ()
    done;
    Obs.Probe.disable ()
  end;
  (Sample.to_array plain, Sample.to_array with_spans)

(* Report what tracing cost: the median traced round against the median
   untraced one. *)
let tracing_overhead ~what ~untraced ~traced_rounds =
  let u = median untraced and t = median traced_rounds in
  Printf.printf
    "tracing overhead %s: median round %.3f ms traced vs %.3f ms untraced = %+.1f%%\n"
    what (t *. 1e3) (u *. 1e3)
    (100. *. ((t /. u) -. 1.))

(* Report how the layer spans add up against the end-to-end time of the
   traced rounds, and what tracing cost. *)
let reconcile ~what ~layers ~untraced ~traced_rounds =
  let e2e = sum traced_rounds *. 1e6 in
  let parts = List.map (fun l -> (l, layer_total_us l)) layers in
  let covered = List.fold_left (fun acc (_, us) -> acc +. us) 0. parts in
  let share = if e2e > 0. then covered /. e2e else 0. in
  Printf.printf "reconcile %s: layers %.3f ms of end-to-end %.3f ms = %.1f%%%s\n"
    what (covered /. 1e3) (e2e /. 1e3) (100. *. share)
    (if Float.abs (share -. 1.) <= 0.1 then " (within 10%)" else " (OUTSIDE 10%)");
  tracing_overhead ~what ~untraced ~traced_rounds

(* --- online layers, timed on copies of a live core ----------------------- *)

(* What one event of a live core costs, layer by layer, measured on
   copies restored from [p] with probes off, so the figures compare with
   untraced rounds.  [p] is taken just after a re-solve; [arrive st]
   brings a copy to the moment of the next one (advancing its clock and
   adding the jobs that arrive first) and returns that moment.  Returns
   the median seconds over [reps] copies of one warm
   [Incremental.solve_state] there, and of the scans every event pays
   besides: [State.queued] and [State.running] (the service's re-solve
   decision), [State.min_remaining_time] (the next completion) and
   [State.advance] by [dt].  Before each timed solve, an untimed one on
   a copy as [p] left it gives the solver the sort order a running
   service carries at that point, so the timed solve repairs it as the
   service's next re-solve does; a first untimed solve after the
   arrivals sizes the solver's scratch, which would otherwise regrow
   and drop the carried order. *)
let online_layers ~config ~platform ~reps ~dt ~arrive (p : Online.Service.persist) =
  let was = Obs.Probe.on () in
  Obs.Probe.disable ();
  let inc = Online.Incremental.create () in
  let restore () = Online.Service.live_state (Online.Service.live_restore ~config ~platform p) in
  let solve st ~at =
    Online.Incremental.reseed inc ~prev_k:p.p_last_k ~prev_d:p.p_prev_d;
    ignore
      (Online.Incremental.solve_state inc ~elapsed:(at -. p.p_last_solve) ~state:st ()
        : float * int)
  in
  let arrived () =
    let st = restore () in
    (st, arrive st)
  in
  (let st, at = arrived () in
   solve st ~at);
  let solves = Sample.create () and scans = Sample.create () in
  for _ = 1 to reps do
    (let st = restore () in
     solve st ~at:(Online.State.now st));
    let st, at = arrived () in
    Sample.add solves (snd (timed (fun () -> solve st ~at)));
    Sample.add scans
      (snd
         (timed (fun () ->
              ignore (Online.State.queued st + Online.State.running st : int);
              ignore (Online.State.min_remaining_time st : float);
              Online.State.advance st ~to_:(Online.State.now st +. dt))))
  done;
  if was then Obs.Probe.enable ();
  (median (Sample.to_array solves), median (Sample.to_array scans))

(* Print how a layer model of the end-to-end time compares with the
   untraced rounds' time for the same work: [parts] are (label,
   seconds) contributions, [e2e] the measured seconds. *)
let reconcile_model ~what ~parts ~e2e =
  let covered = List.fold_left (fun acc (_, s) -> acc +. s) 0. parts in
  let share = covered /. e2e in
  Printf.printf "reconcile %s: %s = %.3f ms of end-to-end %.3f ms = %.1f%%%s; remainder %.3f ms\n"
    what
    (String.concat " + "
       (List.map (fun (l, s) -> Printf.sprintf "%s %.3f ms" l (s *. 1e3)) parts))
    (covered *. 1e3) (e2e *. 1e3) (100. *. share)
    (if Float.abs (share -. 1.) <= 0.1 then " (within 10%)" else " (OUTSIDE 10%)")
    ((e2e -. covered) *. 1e3)
