(* serve-journal: the cosched daemon as a client sees it.  The daemon is
   started by exec with --journal and --snapshot (the crash-safe
   configuration) in a private directory and driven from one
   connection: submits one at a time, each sent when the previous one
   is acknowledged, with model time carried in [at]; a pipelined burst;
   then SIGKILL and restart, timing the first served request.

   The acks are timed in a closed loop.  An open loop at 1 000 and 2 000
   requests/s was tried first: this VM's ext4 journal stalls the
   daemon's journal appends for 15 to 35 ms a few times a second, each
   stall queued the next 15 to 35 scheduled requests, and both the
   median and the 99th percentile then followed the disk (over ten
   seeds, ack p50 from 456 to 1 093 us and p99 from 16 to 35 ms).  In a
   closed loop a stall delays one request, so the percentiles measure
   the daemon and the stalls stay in the far tail.  The traced run adds in-process replays of
   the same requests through the codec, Serve.Backend.handle,
   Serve.Snapshot and Campaign.Journal. *)

open Common

let platform = Model.Platform.paper_default
let block = 250  (* submits between two completion sweeps *)
let loop_blocks = 4  (* blocks sent one at a time; as many by the burst *)
let burst_depth = 64  (* requests in flight during the burst *)
let queue_depth = 4096
let snapshot_every = 256  (* the daemon's default *)
let snapshot_keep = 2
let service = { Online.Service.default_config with policy = Online.Policy.Every_event }

(* --- the private directory and the daemon process ---------------------- *)

let rec rm_rf path =
  match (Unix.lstat path).st_kind with
  | S_DIR ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (ENOENT, _, _) -> ()

let daemon_pid = ref None
let private_dir = ref None

let kill_daemon () =
  match !daemon_pid with
  | None -> ()
  | Some pid ->
    daemon_pid := None;
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())

(* Whatever ends the run — a failed check, an exception, a signal — the
   daemon is killed and reaped and the private directory removed. *)
let cleanup () =
  kill_daemon ();
  match !private_dir with
  | None -> ()
  | Some d ->
    private_dir := None;
    rm_rf d

let () =
  at_exit cleanup;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ]

type paths = { dir : string; sock : string; journal : string; snap : string }

let paths_in dir =
  {
    dir;
    sock = Filename.concat dir "d.sock";
    journal = Filename.concat dir "d.jsonl";
    snap = Filename.concat dir "d.snap";
  }

let spawn ~daemon p =
  let devnull = Unix.openfile "/dev/null" [ O_RDWR ] 0 in
  let log = Unix.openfile (Filename.concat p.dir "daemon.log") [ O_WRONLY; O_CREAT; O_APPEND ] 0o644 in
  let args =
    [|
      daemon; "serve"; "--socket"; p.sock; "--journal"; p.journal; "--snapshot"; p.snap;
      "--snapshot-every"; string_of_int snapshot_every; "--snapshot-keep";
      string_of_int snapshot_keep; "--queue-depth"; string_of_int queue_depth; "--policy";
      Online.Policy.name service.policy;
    |]
  in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull; Unix.close log)
      (fun () -> Unix.create_process daemon args devnull devnull log)
  in
  daemon_pid := Some pid

(* --- one framed connection ---------------------------------------------- *)

type conn = { fd : Unix.file_descr; dec : Serve.Frame.decoder; buf : Bytes.t }

let connect ~sock ~deadline =
  let rec go () =
    let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
    match Unix.connect fd (ADDR_UNIX sock) with
    | () -> fd
    | exception Unix.Unix_error ((ENOENT | ECONNREFUSED | EAGAIN), _, _) ->
      Unix.close fd;
      if now () > deadline then failwith "serve-journal: the daemon did not start listening";
      Unix.sleepf 0.0002;
      go ()
  in
  { fd = go (); dec = Serve.Frame.decoder (); buf = Bytes.create 65536 }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c payload =
  let b = Bytes.unsafe_of_string (Serve.Frame.encode payload) in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write c.fd b !off (len - !off)
  done

let fill c =
  let n = Unix.read c.fd c.buf 0 (Bytes.length c.buf) in
  if n = 0 then failwith "serve-journal: the daemon closed the connection";
  Serve.Frame.feed c.dec (Bytes.sub_string c.buf 0 n)

let response payload =
  match Serve.Protocol.decode_incoming payload with
  | Ok (Serve.Protocol.Reply r) -> r
  | Ok (Serve.Protocol.Event _) -> failwith "serve-journal: unexpected push frame"
  | Error (_, m) -> failwith ("serve-journal: undecodable reply: " ^ m)

let rec recv c =
  match Serve.Frame.next c.dec with
  | `Frame p -> response p
  | `Error m -> failwith ("serve-journal: framing error: " ^ m)
  | `Await ->
    fill c;
    recv c

let request c rid verb =
  incr attempted;
  send c (Serve.Protocol.encode_request { rid; sid = None; at = None; verb });
  let r = recv c in
  if r.rid <> rid then failwith "serve-journal: response out of order";
  r

(* Spawn-to-first-served-request: connect as soon as the socket takes
   connections and wait for a ping to be answered. *)
let start ~daemon p =
  let t0 = now () in
  spawn ~daemon p;
  let c = connect ~sock:p.sock ~deadline:(t0 +. 30.) in
  (match (request c 0 Serve.Protocol.Ping).reply with
  | R_pong -> ()
  | _ -> failwith "serve-journal: ping not answered");
  (c, now () -. t0)

(* --- the request sequence ------------------------------------------------ *)

let spec (a : Model.App.t) =
  { Serve.Protocol.name = a.name; w = a.w; s = a.s; f = a.f; m0 = a.m0; c0 = a.c0;
    footprint = a.footprint }

(* One request of the sequence: a submit of application [i] at model
   time [at], or a status query whose [at] lies past every live job's
   completion, so the whole block completes. *)
type step = Sub of { i : int; at : float } | Sweep of float

type inputs = { apps : Model.App.t array; steps : step array; loop_n : int }

(* Blocks of [block] submits a sliver of model time apart, each followed
   by a completion sweep except the last: the live set climbs from 0 to
   [block] and back in every block whatever the seed, so per-request
   cost does not depend on how the seed's jobs happen to overlap, and
   [block] jobs are live when the daemon is killed. *)
let make_inputs seed =
  let blocks = 2 * loop_blocks in
  let apps =
    Model.Workload.generate ~rng:(Util.Rng.create seed) Model.Workload.NpbSynth (blocks * block)
  in
  let steps = ref [] and t = ref 0. in
  for b = 0 to blocks - 1 do
    (* Sequential time of the block on one processor without cache:
       above its equalised makespan on the whole platform. *)
    let serial = ref 0. in
    for j = 0 to block - 1 do
      let i = (b * block) + j in
      t := !t +. 1e-9;
      steps := Sub { i; at = !t } :: !steps;
      serial := !serial +. Eq2.exe platform apps.(i) ~p:1. ~x:0.
    done;
    if b < blocks - 1 then begin
      t := !t +. (2. *. !serial);
      steps := Sweep !t :: !steps
    end
  done;
  { apps; steps = Array.of_list (List.rev !steps); loop_n = loop_blocks * (block + 1) }

let step_request inp k =
  let rid = k + 1 in
  match inp.steps.(k) with
  | Sub { i; at } -> { Serve.Protocol.rid; sid = None; at = Some at; verb = Submit (spec inp.apps.(i)) }
  | Sweep at -> { Serve.Protocol.rid; sid = None; at = Some at; verb = Query Status }

(* --- one round against the daemon ---------------------------------------- *)

type round_out = {
  acks_us : float array;  (* submit round trips of the closed loop *)
  burst : int * float;
  setup : float;
  recovery : float;
  live_before_kill : int;
}

(* Check one reply of the sequence; submits record their job id. *)
let replied inp ids k (r : Serve.Protocol.response) =
  match (inp.steps.(k), r.reply) with
  | Sub { i; _ }, R_submitted { job } -> ids.(i) <- job
  | Sweep _, R_status { live; _ } ->
    if live <> 0 then fail "serve-journal: %d jobs still live after the sweep at step %d" live k
  | _, R_error { message; _ } ->
    incr op_failed;
    fail "serve-journal: step %d refused: %s" k message
  | _ -> fail "serve-journal: step %d: unexpected reply" k

(* Send requests [first .. first + n - 1] one at a time, each when the
   previous one is acknowledged; returns each round trip in
   microseconds. *)
let closed_loop c ~first ~n ~(req : int -> Serve.Protocol.request) ~on_reply =
  Array.init n (fun j ->
      incr attempted;
      let q = req (first + j) in
      let t = now () in
      send c (Serve.Protocol.encode_request q);
      let r = recv c in
      let dt = (now () -. t) *. 1e6 in
      if r.rid <> q.rid then fail "serve-journal: reply %d to request %d" r.rid q.rid
      else on_reply (first + j) r;
      dt)

(* The rest of the sequence pipelined [burst_depth] deep; returns the
   request count and the seconds it took. *)
let burst c inp ids =
  let first = inp.loop_n and n = Array.length inp.steps - inp.loop_n in
  let t0 = now () in
  let sent = ref 0 and got = ref 0 in
  while !got < n do
    while !sent < n && !sent - !got < burst_depth do
      incr attempted;
      send c (Serve.Protocol.encode_request (step_request inp (first + !sent)));
      incr sent
    done;
    let r = recv c in
    let k = r.rid - 1 in
    if k <> first + !got then fail "serve-journal: burst reply %d out of order" r.rid
    else replied inp ids k r;
    incr got
  done;
  (n, now () -. t0)

let status_live c =
  match (request c 900_001 (Query Status)).reply with
  | R_status { live; _ } -> live
  | _ -> failwith "serve-journal: status query failed"

let allocs c =
  match (request c 900_002 (Query Allocs)).reply with
  | R_allocs _ as r -> r
  | _ -> failwith "serve-journal: allocs query failed"

let stats c =
  match (request c 900_003 (Query Stats)).reply with
  | R_stats { metrics; _ } -> metrics
  | _ -> failwith "serve-journal: stats query failed"

(* The in-process core driven by the same (at, app) sequence, the
   sweeps being plain time advances. *)
let offline_metrics inp =
  let lv = Online.Service.live_create ~config:service ~platform () in
  Array.iter
    (function
      | Sub { i; at } -> ignore (Online.Service.submit lv ~at inp.apps.(i) : Online.State.job)
      | Sweep at -> Online.Service.advance lv ~to_:at)
    inp.steps;
  (lv, (Online.Service.live_report lv).metrics)

let copy_file src dst =
  if Sys.file_exists src then begin
    let ic = open_in_bin src in
    let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () -> really_input_string ic (in_channel_length ic)) in
    let oc = open_out_bin dst in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)
  end

let daemon_round ~daemon ~inp p =
  Unix.mkdir p.dir 0o755;
  let c, setup = start ~daemon p in
  let n = Array.length inp.apps in
  let ids = Array.make n (-1) in
  let acks =
    closed_loop c ~first:0 ~n:inp.loop_n ~req:(step_request inp) ~on_reply:(replied inp ids)
  in
  let acks_us =
    Array.of_list
      (List.filteri (fun k _ -> match inp.steps.(k) with Sub _ -> true | Sweep _ -> false)
         (Array.to_list acks))
  in
  let burst = burst c inp ids in
  let sorted_ids = Array.copy ids in
  Array.sort compare sorted_ids;
  if sorted_ids <> Array.init n Fun.id then
    fail "serve-journal: job ids are not distinct and dense from 0";
  let live_before = status_live c and allocs_before = allocs c in
  close c;
  kill_daemon ();
  (* The killed daemon's files, kept for the in-process recovery timing. *)
  let saved = paths_in (Filename.concat p.dir "killed") in
  Unix.mkdir saved.dir 0o755;
  List.iter
    (fun (a, b) -> copy_file a b)
    [
      (p.journal, saved.journal); (p.snap, saved.snap);
      (Serve.Snapshot.generation_path p.snap 1, Serve.Snapshot.generation_path saved.snap 1);
    ];
  let c, recovery = start ~daemon p in
  let live_after = status_live c and allocs_after = allocs c in
  if live_after <> live_before then
    fail "serve-journal: %d live jobs after restart, %d before the kill" live_after live_before;
  if allocs_after <> allocs_before then
    fail "serve-journal: Query Allocs differs across the kill and restart";
  let served = stats c in
  let lv, expected = offline_metrics inp in
  (* A snapshot restore does not carry the solver's sort permutation, so
     partition_ops alone may differ from the uninterrupted run (see
     Online.Service.live_restore). *)
  if compare { served with partition_ops = expected.partition_ops } expected <> 0 then
    fail "serve-journal: daemon Query Stats differ from the in-process service:\n%s\n%s"
      (Online.Metrics.to_json served) (Online.Metrics.to_json expected);
  (c, saved, lv, { acks_us; burst; setup; recovery; live_before_kill = live_before })

let drain_and_stop c =
  (match (request c 900_004 Drain).reply with
  | R_drained _ -> ()
  | _ -> fail "serve-journal: drain refused");
  close c;
  match !daemon_pid with
  | Some pid ->
    daemon_pid := None;
    (match Unix.waitpid [] pid with
    | _, WEXITED 0 -> ()
    | _ -> fail "serve-journal: the daemon did not exit cleanly after drain")
  | None -> ()

(* --- the traced layers ----------------------------------------------------- *)

type layer_out = {
  handle_us : float array;
  snapshot_ms : float array;
  bytes_per_submit : float;
  snapshots : int;
  codec_enc_us : float array;
  codec_dec_us : float array;
  ping_us : float array;
}

let file_size path = try (Unix.stat path).st_size with Unix.Unix_error _ -> 0

(* The request sequence replayed in-process through the codec and
   Serve.Backend.handle with the daemon's journal and snapshot
   settings. *)
let replay_layers ~inp dir =
  let p = paths_in dir in
  Unix.mkdir dir 0o755;
  let config =
    { Serve.Backend.default_config with service; platform; queue_depth; journal = Some p.journal;
      snapshot = Some p.snap; snapshot_every; snapshot_keep }
  in
  let b = Serve.Backend.create config in
  let handle_us = Sample.create () and snapshot_ms = Sample.create () in
  let enc = Sample.create () and dec = Sample.create () in
  let bytes = ref 0 and plain = ref 0 in
  for k = 0 to Array.length inp.steps - 1 do
    let is_submit = match inp.steps.(k) with Sub _ -> true | Sweep _ -> false in
    let req = step_request inp k in
    let t = now () in
    let wire = span "serve.protocol.encode" (fun () -> Serve.Protocol.encode_request req) in
    let t_enc = now () -. t in
    let t = now () in
    let req' =
      match span "serve.protocol.decode" (fun () -> Serve.Protocol.decode_request wire) with
      | Ok r -> r
      | Error (_, m) -> failwith ("serve-journal: request decode failed: " ^ m)
    in
    let t_dec = now () -. t in
    let snaps = Serve.Backend.snapshots_written b and size = file_size p.journal in
    let t = now () in
    let resp = span "serve.backend.handle" (fun () -> Serve.Backend.handle b ~clients:1 req') in
    let t_handle = now () -. t in
    if Serve.Backend.snapshots_written b > snaps then Sample.add snapshot_ms (t_handle *. 1e3)
    else if is_submit then begin
      Sample.add handle_us (t_handle *. 1e6);
      bytes := !bytes + file_size p.journal - size;
      incr plain
    end;
    let t = now () in
    let out = span "serve.protocol.encode" (fun () -> Serve.Protocol.encode_response resp) in
    let t_enc2 = now () -. t in
    let t = now () in
    ignore (span "serve.protocol.decode" (fun () -> Serve.Protocol.decode_incoming out)
      : (Serve.Protocol.incoming, _) result);
    let t_dec2 = now () -. t in
    Sample.add enc ((t_enc +. t_enc2) *. 1e6);
    Sample.add dec ((t_dec +. t_dec2) *. 1e6)
  done;
  ( Sample.to_array handle_us, Sample.to_array snapshot_ms,
    float_of_int !bytes /. float_of_int (max 1 !plain), Serve.Backend.snapshots_written b,
    Sample.to_array enc, Sample.to_array dec )

let journal_appends ~inp dir =
  let path = Filename.concat dir "append.jsonl" in
  let j = Campaign.Journal.create ~path in
  Array.iteri
    (fun k -> function
      | Sub { i; at } ->
        let a = inp.apps.(i) in
        span "campaign.journal.append" (fun () ->
            Campaign.Journal.append j
              { trial = 0; key = Printf.sprintf "submit:%d:-:%d:%s" k (k + 1) a.name;
                values = [| at; a.w; a.s; a.f; a.m0; a.c0; a.footprint |] })
      | Sweep _ -> ())
    inp.steps

let snapshot_writes lv dir =
  let persist = Online.Service.live_persist lv in
  let path = Filename.concat dir "write.snap" in
  for _ = 1 to 3 do
    match
      span "serve.snapshot.write" (fun () ->
          Serve.Snapshot.write ~path ~keep:snapshot_keep { seq = 0; persist; dedup = [] })
    with
    | Ok () -> ()
    | Error m -> fail "serve-journal: snapshot write failed: %s" m
  done

let recover saved ~live =
  let config =
    { Serve.Backend.default_config with service; platform; queue_depth;
      journal = Some saved.journal; snapshot = Some saved.snap; snapshot_every; snapshot_keep }
  in
  let b = span "serve.backend.recover" (fun () -> Serve.Backend.create config) in
  if Serve.Backend.live_jobs b <> live then
    fail "serve-journal: in-process recovery found %d live jobs, the daemon had %d"
      (Serve.Backend.live_jobs b) live

(* Pings in the same closed loop: the wire and wake-up floor under an
   ack, with no backend work. *)
let pings c =
  closed_loop c ~first:0 ~n:200
    ~req:(fun i -> { Serve.Protocol.rid = 800_000 + i; sid = None; at = None; verb = Ping })
    ~on_reply:(fun _ (r : Serve.Protocol.response) ->
      match r.reply with R_pong -> () | _ -> fail "serve-journal: ping not answered")

(* --- the workload ------------------------------------------------------------ *)

let run ~seed ~seconds ~daemon =
  if not (Sys.file_exists daemon) then failwith ("serve-journal: no daemon executable at " ^ daemon);
  (try Unix.mkdir !trace_dir 0o755 with Unix.Unix_error (EEXIST, _, _) -> ());
  let root = Filename.concat !trace_dir (Printf.sprintf "serve-%d" (Unix.getpid ())) in
  rm_rf root;
  Unix.mkdir root 0o755;
  private_dir := Some root;
  let inp = make_inputs seed in
  let acks = Sample.create () and bursts = Sample.create () in
  let setups = Sample.create () and recoveries = Sample.create () in
  let t_acks = Sample.create () and layers = ref [] and live_seen = Sample.create () in
  let rounds = ref 0 in
  let round ~traced:tr =
    incr rounds;
    let p = paths_in (Filename.concat root (Printf.sprintf "round-%d" !rounds)) in
    let (c, saved, lv, o), t_round = timed (fun () -> daemon_round ~daemon ~inp p) in
    Sample.add live_seen (float_of_int o.live_before_kill);
    if tr then begin
      Array.iter (Sample.add t_acks) o.acks_us;
      let ping_us = pings c in
      drain_and_stop c;
      let handle_us, snapshot_ms, bytes_per_submit, snapshots, codec_enc_us, codec_dec_us =
        replay_layers ~inp (Filename.concat p.dir "replay")
      in
      journal_appends ~inp p.dir;
      snapshot_writes lv p.dir;
      recover saved ~live:o.live_before_kill;
      layers :=
        { handle_us; snapshot_ms; bytes_per_submit; snapshots; codec_enc_us; codec_dec_us; ping_us }
        :: !layers
    end
    else begin
      drain_and_stop c;
      Array.iter (Sample.add acks) o.acks_us;
      Sample.add bursts (float_of_int (fst o.burst) /. snd o.burst);
      Sample.add setups o.setup;
      Sample.add recoveries (o.recovery *. 1e3);
    end;
    rm_rf p.dir;
    t_round
  in
  let untraced, traced_rounds = run_rounds ~seconds ~min_rounds:3 ~round in
  let a = Sample.to_array acks in
  set_metric "setup_s" (median (Sample.to_array setups));
  (* The median round: a burst that meets a disk stall runs at half
     speed, and a total over the run would follow its few stalls. *)
  set_metric "throughput_per_s" (median (Sample.to_array bursts));
  set_metric "op_p50_us" (quantile a 0.5);
  set_metric "op_p90_us" (quantile a 0.9);
  set_metric "phase_ms" (median (Sample.to_array recoveries));
  Printf.printf
    "serve-journal: blocks of %d submits each ended by a completion sweep; %d blocks \
     one request at a time, %d pipelined %d deep, then kill and restart with %.0f live; \
     every-event, snapshot every %d; %d rounds\n"
    block loop_blocks loop_blocks burst_depth (median (Sample.to_array live_seen))
    snapshot_every !rounds;
  if !Common.traced then begin
    let ls = !layers in
    let cat f = Array.concat (List.map f ls) in
    let handle = median (cat (fun l -> l.handle_us)) in
    let enc = median (cat (fun l -> l.codec_enc_us)) and dec = median (cat (fun l -> l.codec_dec_us)) in
    let ack = median (Sample.to_array t_acks) and ping = median (cat (fun l -> l.ping_us)) in
    set_metric "serve.protocol.encode_us" enc;
    set_metric "serve.protocol.decode_us" dec;
    set_metric "serve.backend.handle_us" handle;
    set_metric "serve.daemon.wire_us" (ack -. handle -. enc -. dec);
    set_metric "serve.backend.snapshot_handle_ms" (median (cat (fun l -> l.snapshot_ms)));
    set_metric "serve.snapshots" (median (Array.of_list (List.map (fun l -> float_of_int l.snapshots) ls)));
    set_metric "serve.journal_bytes_per_submit"
      (median (Array.of_list (List.map (fun l -> l.bytes_per_submit) ls)));
    set_metric "serve.snapshot.write_ms" (layer_median_us "serve.snapshot.write" /. 1e3);
    set_metric "campaign.journal.append_us" (layer_median_us "campaign.journal.append");
    set_metric "serve.backend.recover_ms" (layer_median_us "serve.backend.recover" /. 1e3);
    print_self_times ();
    let parts = handle +. enc +. dec +. ping in
    Printf.printf
      "reconcile serve-journal ack p50: handle %.1f + codec %.1f + ping round trip %.1f = \
       %.1f us of %.1f us = %.1f%%%s\n"
      handle (enc +. dec) ping parts ack (100. *. parts /. ack)
      (if Float.abs ((parts /. ack) -. 1.) <= 0.1 then " (within 10%)" else " (OUTSIDE 10%)");
    Printf.printf
      "tracing overhead serve-journal: median round %.3f s traced vs %.3f s untraced (probes \
       are on in this process only; the daemon runs untraced)\n"
      (median traced_rounds) (median untraced)
  end;
  cleanup ()
