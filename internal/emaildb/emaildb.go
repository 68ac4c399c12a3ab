// Package emaildb is the protected relational email database of paper
// section 6.2: a database server accepting insert, update, select and
// delete requests as remote method invocations, with Snowflake
// authorization prepended to each method. Authority is delegated per
// mailbox owner through tags of the form (db (owner "alice") (op
// select)), so the server — not any gateway — makes the final
// access-control decision for every row.
package emaildb

import (
	"fmt"
	"time"

	"repro/internal/cert"
	"repro/internal/principal"
	"repro/internal/reldb"
	"repro/internal/rmi"
	"repro/internal/tag"
)

// Message is one email row.
type Message struct {
	ID      int64
	Owner   string
	Folder  string
	From    string
	To      string
	Subject string
	Date    time.Time
	Body    string
	Read    bool
}

// Service implements the remote database object.
type Service struct {
	db     *reldb.DB
	nextID int64
	mu     chan struct{} // 1-token semaphore for id allocation
}

// NewService builds the schema.
func NewService() (*Service, error) {
	db := reldb.New()
	err := db.CreateTable(reldb.Schema{
		Name: "messages",
		Columns: []reldb.Column{
			{Name: "id", Type: reldb.Int},
			{Name: "owner", Type: reldb.String},
			{Name: "folder", Type: reldb.String},
			{Name: "from", Type: reldb.String},
			{Name: "to", Type: reldb.String},
			{Name: "subject", Type: reldb.String},
			{Name: "date", Type: reldb.Time},
			{Name: "body", Type: reldb.String},
			{Name: "read", Type: reldb.Bool},
		},
		Key:     "id",
		Indexes: []string{"owner", "folder"},
	})
	if err != nil {
		return nil, err
	}
	s := &Service{db: db, mu: make(chan struct{}, 1)}
	s.mu <- struct{}{}
	return s, nil
}

func toRow(m Message) reldb.Row {
	return reldb.Row{
		"id":      reldb.IntV(m.ID),
		"owner":   reldb.StringV(m.Owner),
		"folder":  reldb.StringV(m.Folder),
		"from":    reldb.StringV(m.From),
		"to":      reldb.StringV(m.To),
		"subject": reldb.StringV(m.Subject),
		"date":    reldb.TimeV(m.Date),
		"body":    reldb.StringV(m.Body),
		"read":    reldb.BoolV(m.Read),
	}
}

func fromRow(r reldb.Row) Message {
	return Message{
		ID:      r["id"].I,
		Owner:   r["owner"].S,
		Folder:  r["folder"].S,
		From:    r["from"].S,
		To:      r["to"].S,
		Subject: r["subject"].S,
		Date:    r["date"].T,
		Body:    r["body"].S,
		Read:    r["read"].Bool,
	}
}

// --- RMI argument/reply types ------------------------------------------

// InsertArgs inserts one message into the owner's mailbox.
type InsertArgs struct{ Msg Message }

// InsertReply returns the assigned id.
type InsertReply struct{ ID int64 }

// SelectArgs queries one owner's messages, optionally one folder.
type SelectArgs struct {
	Owner  string
	Folder string
	Limit  int
}

// SelectReply returns matching messages, newest first.
type SelectReply struct{ Msgs []Message }

// MarkReadArgs marks one message read.
type MarkReadArgs struct {
	Owner string
	ID    int64
}

// MarkReadReply counts updates.
type MarkReadReply struct{ Updated int }

// DeleteArgs deletes one message.
type DeleteArgs struct {
	Owner string
	ID    int64
}

// DeleteReply counts deletions.
type DeleteReply struct{ Deleted int }

// --- remote methods ------------------------------------------------------

// Insert adds a message.
func (s *Service) Insert(args InsertArgs, reply *InsertReply) error {
	if args.Msg.Owner == "" {
		return fmt.Errorf("emaildb: message needs an owner")
	}
	<-s.mu
	s.nextID++
	args.Msg.ID = s.nextID
	s.mu <- struct{}{}
	if _, err := s.db.Insert("messages", toRow(args.Msg)); err != nil {
		return err
	}
	reply.ID = args.Msg.ID
	return nil
}

// Select returns an owner's messages.
func (s *Service) Select(args SelectArgs, reply *SelectReply) error {
	where := []reldb.Cond{{Col: "owner", Op: reldb.Eq, Val: reldb.StringV(args.Owner)}}
	if args.Folder != "" {
		where = append(where, reldb.Cond{Col: "folder", Op: reldb.Eq, Val: reldb.StringV(args.Folder)})
	}
	rows, err := s.db.Select(reldb.Query{
		Table: "messages", Where: where, OrderBy: "date", Desc: true, Limit: args.Limit,
	})
	if err != nil {
		return err
	}
	for _, r := range rows {
		reply.Msgs = append(reply.Msgs, fromRow(r))
	}
	return nil
}

// MarkRead flags a message read.
func (s *Service) MarkRead(args MarkReadArgs, reply *MarkReadReply) error {
	n, err := s.db.Update("messages",
		[]reldb.Cond{
			{Col: "owner", Op: reldb.Eq, Val: reldb.StringV(args.Owner)},
			{Col: "id", Op: reldb.Eq, Val: reldb.IntV(args.ID)},
		},
		reldb.Row{"read": reldb.BoolV(true)})
	if err != nil {
		return err
	}
	reply.Updated = n
	return nil
}

// Delete removes a message.
func (s *Service) Delete(args DeleteArgs, reply *DeleteReply) error {
	n, err := s.db.Delete("messages", []reldb.Cond{
		{Col: "owner", Op: reldb.Eq, Val: reldb.StringV(args.Owner)},
		{Col: "id", Op: reldb.Eq, Val: reldb.IntV(args.ID)},
	})
	if err != nil {
		return err
	}
	reply.Deleted = n
	return nil
}

// --- authorization mapping -------------------------------------------------

// OpTag is the concrete tag of one operation on one mailbox:
// (db (owner "alice") (op select)).
func OpTag(owner, op string) tag.Tag {
	return tag.ListOf(
		tag.Literal("db"),
		tag.ListOf(tag.Literal("owner"), tag.Literal(owner)),
		tag.ListOf(tag.Literal("op"), tag.Literal(op)),
	)
}

// OwnerTag covers every operation on one mailbox.
func OwnerTag(owner string) tag.Tag {
	return tag.ListOf(
		tag.Literal("db"),
		tag.ListOf(tag.Literal("owner"), tag.Literal(owner)),
	)
}

// AllTag covers every operation on every mailbox — the root
// delegation a database owner hands an organization-level issuer,
// which then narrows per member with OwnerTag (list tags compose by
// intersection: ("db") ∩ ("db" (owner "u")) = the member's tag).
func AllTag() tag.Tag {
	return tag.ListOf(tag.Literal("db"))
}

// ReadOnlyTag covers select on one mailbox.
func ReadOnlyTag(owner string) tag.Tag {
	return tag.ListOf(
		tag.Literal("db"),
		tag.ListOf(tag.Literal("owner"), tag.Literal(owner)),
		tag.ListOf(tag.Literal("op"), tag.Literal("select")),
	)
}

// TagFor is the service's rmi.TagFunc: it derives the required
// restriction from the decoded arguments, scoping every call to the
// mailbox it touches.
func TagFor(object, method string, args interface{}) tag.Tag {
	switch a := args.(type) {
	case InsertArgs:
		return OpTag(a.Msg.Owner, "insert")
	case SelectArgs:
		return OpTag(a.Owner, "select")
	case MarkReadArgs:
		return OpTag(a.Owner, "update")
	case DeleteArgs:
		return OpTag(a.Owner, "delete")
	default:
		// Unknown method shape: demand the unsatisfiable-by-accident
		// full-database tag.
		return tag.ListOf(tag.Literal("db"), tag.ListOf(tag.Literal("owner"), tag.All()))
	}
}

// ObjectName is the conventional RMI name of the database object.
const ObjectName = "emaildb"

// Register installs the service on an RMI server under ObjectName.
func Register(srv *rmi.Server, svc *Service, issuer principal.Principal) error {
	return srv.Register(ObjectName, svc, issuer, TagFor)
}

// RegisterWithRevocation installs the service and binds the server's
// admission pipeline to a revocation store: submitted proofs are
// checked against its CRLs, and because the store bumps the
// verified-proof cache's epoch on every CRL it installs, a revocation
// invalidates previously cached verdicts at the next call — the
// database keeps making the real access-control decision (section
// 6.2) while the warm path stays one cache lookup.
func RegisterWithRevocation(srv *rmi.Server, svc *Service, issuer principal.Principal, rs *cert.RevocationStore) error {
	if rs != nil && srv.Cache != nil {
		rs.AttachCache(srv.Cache)
	}
	srv.Revocations = rs
	return Register(srv, svc, issuer)
}
