package gateway

import (
	"bytes"
	"html/template"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/emaildb"
)

// mailboxTmpl is the page renderMailbox writes, as html/template
// renders it: the oracle its output must equal byte for byte.
var mailboxTmpl = template.Must(template.New("mailbox").Parse(`<!DOCTYPE html>
<html><head><title>{{.Owner}}'s mail</title></head><body>
<h1>Mailbox: {{.Owner}}</h1>
<table border="1">
<tr><th>ID</th><th>From</th><th>Subject</th><th>Date</th><th>Read</th></tr>
{{range .Msgs}}<tr><td>{{.ID}}</td><td>{{.From}}</td><td>{{.Subject}}</td><td>{{.Date.Format "2006-01-02 15:04"}}</td><td>{{if .Read}}yes{{else}}no{{end}}</td></tr>
{{end}}</table>
<p>{{len .Msgs}} message(s). Rendered by the Snowflake quoting gateway.</p>
</body></html>`))

func renderOracle(t testing.TB, owner string, msgs []emaildb.Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := mailboxTmpl.Execute(&buf, struct {
		Owner string
		Msgs  []emaildb.Message
	}{owner, msgs}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func checkRender(t *testing.T, owner string, msgs []emaildb.Message) {
	t.Helper()
	rec := httptest.NewRecorder()
	renderMailbox(rec, owner, msgs)
	if got, want := rec.Body.Bytes(), renderOracle(t, owner, msgs); !bytes.Equal(got, want) {
		t.Fatalf("render differs from the template:\n got %q\nwant %q", got, want)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/html; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
}

func TestRenderMailboxMatchesTemplate(t *testing.T) {
	date := time.Date(2000, 10, 23, 9, 5, 0, 0, time.UTC)
	hostile := "a\x00b\"c&d'e+f<g>h</title><script>\xff\xfe\xc3(﷐\U0010ffff"
	checkRender(t, "alice", nil)
	checkRender(t, hostile, []emaildb.Message{
		{ID: 1, From: "bob", Subject: "hi", Date: date},
		{ID: -7, From: hostile, Subject: hostile, Date: date.AddDate(9000, 0, 0), Read: true},
		{ID: 1 << 62, From: "", Subject: "&amp;", Date: time.Time{}},
	})
}

// FuzzRenderMailbox checks renderMailbox against the template over
// arbitrary strings and 0–3 messages.
func FuzzRenderMailbox(f *testing.F) {
	f.Add("alice", "bob", "hello", uint8(1), int64(1), int64(972291900), false)
	f.Add("a\x00b", "+\"'", "</title>", uint8(3), int64(-1), int64(-62135596800), true)
	f.Add("\xff\xfe", "<&>", "\xc3(", uint8(2), int64(1<<62), int64(253402300800), false)
	f.Add("", "", "", uint8(0), int64(0), int64(0), true)
	f.Fuzz(func(t *testing.T, owner, from, subject string, n uint8, id, unix int64, read bool) {
		msgs := make([]emaildb.Message, n%4)
		for i := range msgs {
			msgs[i] = emaildb.Message{
				ID:      id + int64(i),
				From:    from,
				Subject: subject[:len(subject)*i/len(msgs)],
				Date:    time.Unix(unix, 0).UTC().AddDate(i, 0, 0),
				Read:    read != (i%2 == 1),
			}
		}
		checkRender(t, owner, msgs)
	})
}

// discardWriter is a ResponseWriter that keeps nothing but its header.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// BenchmarkRenderMailbox renders the page a warm admit returns in the
// benchmark's world: one message in the mailbox.
func BenchmarkRenderMailbox(b *testing.B) {
	w := discardWriter{h: make(http.Header)}
	msgs := []emaildb.Message{{
		ID: 1, Owner: "user-00042", Folder: "inbox", From: "postmaster", To: "user-00042",
		Subject: "welcome user-00042", Date: time.Unix(972291900, 0).UTC(),
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		renderMailbox(w, "user-00042", msgs)
	}
}
