package server

import (
	"container/list"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/session"
)

// maxLiveSessions caps the drill-down sessions a server keeps. A
// session pins its history's results, region bitmaps included, for as
// long as it lives and clients never close one, so past the cap the
// least recently used idle session goes; its id then answers 404.
const maxLiveSessions = 64

// liveSession is one registered session. inflight counts the requests
// currently using it: a busy session is never evicted.
type liveSession struct {
	id       int
	sess     *session.Session
	inflight int
}

// sessionTable is the server's bounded session registry: ids are never
// reused, and entries leave in least-recently-used order.
type sessionTable struct {
	mu     sync.Mutex
	byID   map[int]*list.Element // value type: *liveSession
	lru    *list.List            // front = most recently used
	nextID int
}

func newSessionTable() *sessionTable {
	return &sessionTable{byID: map[int]*list.Element{}, lru: list.New()}
}

// add registers sess under a fresh id.
func (t *sessionTable) add(sess *session.Session) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := t.nextID
	t.nextID++
	t.byID[id] = t.lru.PushFront(&liveSession{id: id, sess: sess})
	t.evictLocked()
	return id
}

// acquire returns session id for the duration of one request; the
// caller must release(id) when done.
func (t *sessionTable) acquire(id int) (*session.Session, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	el, ok := t.byID[id]
	if !ok {
		return nil, false
	}
	t.lru.MoveToFront(el)
	ls := el.Value.(*liveSession)
	ls.inflight++
	return ls.sess, true
}

func (t *sessionTable) release(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if el, ok := t.byID[id]; ok {
		el.Value.(*liveSession).inflight--
		t.evictLocked()
	}
}

// evictLocked drops idle sessions, least recently used first, while the
// table is over the cap. The most recently used one stays (a session
// just created must not 404 on its first use), so when every older
// session is busy the table stays over the cap until a release. Caller
// holds t.mu.
func (t *sessionTable) evictLocked() {
	for el := t.lru.Back(); el != t.lru.Front() && t.lru.Len() > maxLiveSessions; {
		prev := el.Prev()
		if ls := el.Value.(*liveSession); ls.inflight == 0 {
			t.lru.Remove(el)
			delete(t.byID, ls.id)
		}
		el = prev
	}
}

func (t *sessionTable) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lru.Len()
}

// sessionHandler is a handler of one session's route: sid rides into
// the query log and the workload recorder (session affinity).
type sessionHandler func(w http.ResponseWriter, r *http.Request, sess *session.Session, sid int)

// withSession resolves the request's session and holds it — safe from
// eviction — until the handler returns.
func (s *Server) withSession(h sessionHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.PathValue("id"))
		if err != nil {
			writeError(w, &badRequest{fmt.Errorf("invalid session id %q", r.PathValue("id"))})
			return
		}
		sess, ok := s.sessions.acquire(id)
		if !ok {
			writeError(w, &notFound{fmt.Errorf("no session %d", id)})
			return
		}
		defer s.sessions.release(id)
		h(w, r, sess, id)
	}
}
