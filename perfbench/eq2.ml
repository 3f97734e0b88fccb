(* The paper's execution-time model, written down again from its
   formulas so the output checks never go through the code they check
   (Model.Exec_model, Model.Kernel, Sched.Equalize).  Only the fields of
   the application and platform records are read.

   Eq. (1): miss rate at cache size c is min(1, m0 (c0 / c)^alpha), 1
   with no cache, 0 for an application that never misses; the useful
   cache is capped at the footprint.
   Eq. (2): Exe_i(p, x) = (s w + (1 - s) w / p) (1 + f (ls + ll miss)).
   Lemma 3: with perfectly parallel applications and equal finish times,
   the makespan is sum_i Exe_i(1, x_i) / p. *)

let miss (pl : Model.Platform.t) (a : Model.App.t) x =
  if a.m0 = 0. then 0.
  else
    let c = Float.min (x *. pl.cs) a.footprint in
    if c <= 0. then 1. else Float.min 1. (a.m0 *. ((a.c0 /. c) ** pl.alpha))

(* The Section 5 work cost c_i: the operation count times the
   per-operation cost, so that Exe_i(p, x) = (s + (1 - s) / p) c_i. *)
let cost pl (a : Model.App.t) x =
  a.w *. (1. +. (a.f *. (pl.Model.Platform.ls +. (pl.ll *. miss pl a x))))

let exe pl (a : Model.App.t) ~p ~x = (a.s +. ((1. -. a.s) /. p)) *. cost pl a x

(* Lemma 3 makespan of a perfectly parallel instance. *)
let lemma3 pl (apps : Model.App.t array) (x : float array) =
  let total = ref 0. in
  Array.iteri (fun i a -> total := !total +. cost pl a x.(i)) apps;
  !total /. pl.Model.Platform.p

(* The equalised makespan K for cache fractions [x]: every application
   finishes at K with p_i = (1 - s_i) / (K / c_i - s_i), and K is the
   root of sum_i p_i(K) = p, found by plain bisection on a bracket whose
   lower end gives every application all p processors. *)
let equalised pl (apps : Model.App.t array) (x : float array) =
  let p = pl.Model.Platform.p in
  let c = Array.mapi (fun i a -> cost pl a x.(i)) apps in
  let demand k =
    let d = ref 0. in
    Array.iteri
      (fun i (a : Model.App.t) ->
        let room = (k /. c.(i)) -. a.s in
        d := !d +. if room <= 0. then infinity else (1. -. a.s) /. room)
      apps;
    !d
  in
  let lo = ref 0. in
  Array.iteri
    (fun i (a : Model.App.t) -> lo := Float.max !lo ((a.s +. ((1. -. a.s) /. p)) *. c.(i)))
    apps;
  let hi = ref (2. *. !lo) in
  while demand !hi > p do
    lo := !hi;
    hi := 2. *. !hi
  done;
  let steps = ref 0 in
  while !hi -. !lo > 1e-15 *. !hi && !steps < 400 do
    let mid = 0.5 *. (!lo +. !hi) in
    if demand mid > p then lo := mid else hi := mid;
    incr steps
  done;
  !hi

(* Sequential baseline of AllProcCache: each application alone on the
   whole platform, one after the other. *)
let all_proc_cache pl (apps : Model.App.t array) =
  Array.fold_left (fun acc a -> acc +. exe pl a ~p:pl.Model.Platform.p ~x:1.) 0. apps
