(* The benchmark's own data model: generated facts and queries, their
   rendering to the server's concrete syntax, and the answer oracle.

   The oracle never goes through the served route.  Boolean queries are
   decided by the Prop. 2 homomorphism check D_Q ⊑ D on the bitset
   engine, over structures built here from the generated facts (not from
   the server's parser); non-Boolean queries by a small naive join
   evaluator over the same facts (nulls as values, null-carrying answer
   tuples dropped — exact for CQs by Theorem 4). *)

module Engine = Certdb_csp.Engine
module Structure = Certdb_csp.Structure
module Domains = Certdb_csp.Domains

type value = C of int | N of int  (** constant, labelled null *)
type fact = { rel : string; args : value array }
type term = V of string | K of int  (** query variable, constant *)
type atom = { r : string; ts : term list }
type query = { head : string list; atoms : atom list }

let value_text = function C i -> string_of_int i | N i -> Printf.sprintf "_n%d" i

let fact_text f =
  Printf.sprintf "%s(%s)" f.rel
    (String.concat "," (Array.to_list (Array.map value_text f.args)))

let source facts = String.concat "; " (List.map fact_text facts)
let term_text = function V v -> "_" ^ v | K c -> string_of_int c

let query_text q =
  Printf.sprintf "ans(%s) :- %s"
    (String.concat "," (List.map (fun v -> "_" ^ v) q.head))
    (String.concat ", "
       (List.map
          (fun a ->
            Printf.sprintf "%s(%s)" a.r
              (String.concat "," (List.map term_text a.ts)))
          q.atoms))

(* ---- expected answers ------------------------------------------------ *)

type expect =
  | Certain of bool  (** Boolean query: exact grade, this verdict *)
  | Answers of string list  (** non-Boolean: sorted tuples, "1,2" form *)

let expect_to_string = function
  | Certain b -> Printf.sprintf "certain=%b" b
  | Answers l -> Printf.sprintf "answers={%s}" (String.concat " " l)

(* A database prepared for the oracle: facts by relation; per (relation,
   position), built on first use, an index from value to facts; and, on
   first Boolean use, the bitset-engine target structure over its active
   domain. *)
type db = {
  by_rel : (string, value array list) Hashtbl.t;
  by_pos : (string * int, (value, value array list) Hashtbl.t) Hashtbl.t;
  target : ((value, int) Hashtbl.t * Structure.t) Lazy.t;
}

let push tbl k x =
  Hashtbl.replace tbl k (x :: Option.value (Hashtbl.find_opt tbl k) ~default:[])

let rows_at db rel pos v =
  let idx =
    match Hashtbl.find_opt db.by_pos (rel, pos) with
    | Some idx -> idx
    | None ->
      let idx = Hashtbl.create 1024 in
      List.iter
        (fun args -> if pos < Array.length args then push idx args.(pos) args)
        (Option.value (Hashtbl.find_opt db.by_rel rel) ~default:[]);
      Hashtbl.replace db.by_pos (rel, pos) idx;
      idx
  in
  Option.value (Hashtbl.find_opt idx v) ~default:[]

let prepare facts =
  let by_rel = Hashtbl.create 8 in
  List.iter (fun f -> push by_rel f.rel f.args) facts;
  let target =
    lazy
      (let node_of = Hashtbl.create 1024 in
       let node v =
         match Hashtbl.find_opt node_of v with
         | Some i -> i
         | None ->
           let i = Hashtbl.length node_of in
           Hashtbl.replace node_of v i;
           i
       in
       let tuples =
         Hashtbl.fold
           (fun rel rows acc -> (rel, List.map (Array.map node) rows) :: acc)
           by_rel []
       in
       let nodes = List.init (Hashtbl.length node_of) (fun i -> (i, None)) in
       (node_of, Structure.make ~nodes ~tuples))
  in
  { by_rel; by_pos = Hashtbl.create 8; target }

(* D_Q ⊑ D: one source node per query term, constants pinned to their own
   value (a constant outside the active domain has no candidate). *)
let component_holds db q =
  let ids = Hashtbl.create 16 in
  let id t =
    match Hashtbl.find_opt ids t with
    | Some i -> i
    | None ->
      let i = Hashtbl.length ids in
      Hashtbl.replace ids t i;
      i
  in
  let tuples =
    List.map (fun a -> (a.r, [ Array.of_list (List.map id a.ts) ])) q.atoms
  in
  let source =
    Structure.make ~nodes:(List.init (Hashtbl.length ids) (fun i -> (i, None))) ~tuples
  in
  let node_of, target = Lazy.force db.target in
  let restrict =
    Domains.of_list
      (Hashtbl.fold
         (fun t i acc ->
           match t with
           | V _ -> acc
           | K c ->
             let s =
               match Hashtbl.find_opt node_of (C c) with
               | Some w -> Structure.Int_set.singleton w
               | None -> Structure.Int_set.empty
             in
             (i, s) :: acc)
         ids [])
  in
  let config = Engine.Config.make ~restrict () in
  match Engine.satisfiable ~config ~source ~target () with
  | Engine.Sat () -> true
  | Engine.Unsat -> false
  | Engine.Unknown r -> failwith ("oracle: " ^ Engine.reason_to_string r)

(* Naive evaluation by backtracking over atoms, most-bound atom first. *)
let naive_answers db q =
  let out = Hashtbl.create 64 in
  let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:[] in
  let bound env = function K _ -> true | V v -> List.mem_assoc v env in
  (* candidate rows: through the index on the first bound position *)
  let rows env a =
    let rec first i = function
      | [] -> get db.by_rel a.r
      | K c :: _ -> rows_at db a.r i (C c)
      | V x :: ts -> (
        match List.assoc_opt x env with
        | Some v -> rows_at db a.r i v
        | None -> first (i + 1) ts)
    in
    first 0 a.ts
  in
  let rec go env = function
    | [] ->
      let tuple = List.map (fun v -> List.assoc v env) q.head in
      if List.for_all (function C _ -> true | N _ -> false) tuple then
        Hashtbl.replace out
          (String.concat "," (List.map value_text tuple))
          ()
    | atoms ->
      let score a = List.length (List.filter (bound env) a.ts) in
      let a =
        List.fold_left
          (fun best a -> if score a > score best then a else best)
          (List.hd atoms) atoms
      in
      let rest = List.filter (fun b -> b != a) atoms in
      List.iter
        (fun args ->
          let rec bind env i = function
            | [] -> Some env
            | t :: ts -> (
              let v = args.(i) in
              match t with
              | K c -> if v = C c then bind env (i + 1) ts else None
              | V x -> (
                match List.assoc_opt x env with
                | Some w -> if w = v then bind env (i + 1) ts else None
                | None -> bind ((x, v) :: env) (i + 1) ts))
          in
          if Array.length args = List.length a.ts then
            match bind env 0 a.ts with Some env -> go env rest | None -> ())
        (rows env a)
  in
  go [] q.atoms;
  List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) out [])

(* Atoms sharing no variable are independent: D_Q ⊑ D iff every
   connected part maps.  Deciding them apart keeps the oracle from
   re-solving one part for every solution of another. *)
let hom_holds db q =
  let vars a = List.filter_map (function V v -> Some v | K _ -> None) a.ts in
  let rec parts = function
    | [] -> []
    | a :: rest ->
      let rec grow part vs rest =
        let joins, others =
          List.partition (fun b -> List.exists (fun v -> List.mem v vs) (vars b)) rest
        in
        if joins = [] then (part, rest)
        else grow (part @ joins) (vs @ List.concat_map vars joins) others
      in
      let part, rest = grow [ a ] (vars a) rest in
      part :: parts rest
  in
  List.for_all (fun atoms -> component_holds db { q with atoms }) (parts q.atoms)

let expected db q =
  if q.head = [] then Certain (hom_holds db q) else Answers (naive_answers db q)

(* The server renders answer sets as "ans(1, 2); ans(3, 4)". *)
let answers_of_wire s =
  if String.trim s = "" then []
  else
    String.split_on_char ';' s
    |> List.map (fun t ->
           let t = String.trim t in
           match (String.index_opt t '(', String.rindex_opt t ')') with
           | Some i, Some j when j > i ->
             String.sub t (i + 1) (j - i - 1)
             |> String.split_on_char ','
             |> List.map String.trim |> String.concat ","
           | _ -> failwith ("unparsable answer tuple " ^ t))
    |> List.sort compare
