package load

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Conn is one keep-alive HTTP connection to netmarkd: a client whose
// transport may hold a single connection, with a reusable body buffer.
// Calls on one Conn are serialised, so the control connection can be
// shared by the /stats watcher and the phase that reads window edges.
type Conn struct {
	base string
	hc   *http.Client
	mu   sync.Mutex
	buf  bytes.Buffer // guarded by mu
}

// NewConn prepares a connection to the server at base.
func NewConn(base string) *Conn {
	return &Conn{base: base, hc: &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   time.Minute,
	}}
}

// Close drops the connection.
func (c *Conn) Close() { c.hc.CloseIdleConnections() }

// doLocked sends one request and reads the whole body into the
// connection's buffer.  The caller holds mu until it is done with the
// returned slice.
func (c *Conn) doLocked(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// CheckBody verifies an /xdb response body against the oracle: the
// result envelope is intact, the item count matches both the envelope's
// own count attribute and the oracle's, and, where the body is pinned,
// every byte matches.
func CheckBody(body []byte, q *PoolQuery) error {
	items := bytes.Count(body, []byte(q.Marker))
	if items != q.Want {
		return fmt.Errorf("%s: %d items, oracle says %d", q.Raw, items, q.Want)
	}
	if q.Marker == "<item " {
		if !bytes.HasPrefix(body, []byte("<briefing>")) || !bytes.HasSuffix(body, []byte("</briefing>\n")) {
			return fmt.Errorf("%s: broken <briefing> envelope", q.Raw)
		}
	} else {
		head := `<results count="` + strconv.Itoa(q.Want) + `">`
		if !bytes.HasPrefix(body, []byte(head)) || !bytes.HasSuffix(body, []byte("</results>\n")) {
			return fmt.Errorf("%s: broken <results> envelope", q.Raw)
		}
	}
	if q.CRC != 0 && crc32.ChecksumIEEE(body) != q.CRC {
		return fmt.Errorf("%s: body differs from the oracle's", q.Raw)
	}
	return nil
}

// Query runs one pool query and verifies the answer.  It returns the
// client-observed latency and the response size.
func (c *Conn) Query(q *PoolQuery) (time.Duration, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	status, body, err := c.doLocked(http.MethodGet, "/xdb?"+q.Raw, nil)
	lat := time.Since(start)
	if err != nil {
		return lat, 0, err
	}
	if status != http.StatusOK {
		return lat, len(body), fmt.Errorf("%s: status %d", q.Raw, status)
	}
	return lat, len(body), CheckBody(body, q)
}

// Put uploads one document into the drop folder.
func (c *Conn) Put(name string, data []byte) (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	status, _, err := c.doLocked(http.MethodPut, "/dav/"+url.PathEscape(name), data)
	lat := time.Since(start)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("PUT %s: status %d", name, status)
	}
	return lat, err
}

// Delete removes one stored document; the 204 comes after the WAL
// commit.
func (c *Conn) Delete(id uint64) (time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	start := time.Now()
	status, _, err := c.doLocked(http.MethodDelete, "/doc/"+strconv.FormatUint(id, 10), nil)
	lat := time.Since(start)
	if err == nil && status != http.StatusNoContent {
		err = fmt.Errorf("DELETE /doc/%d: status %d", id, status)
	}
	return lat, err
}

// GetDoc fetches a reconstructed document and returns the status and
// the body's size.
func (c *Conn) GetDoc(id uint64) (status, size int, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	status, body, err := c.doLocked(http.MethodGet, "/doc/"+strconv.FormatUint(id, 10), nil)
	return status, len(body), err
}

// Stats fetches and parses /stats.
func (c *Conn) Stats() (ServerStats, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	status, body, err := c.doLocked(http.MethodGet, "/stats", nil)
	if err != nil {
		return ServerStats{}, err
	}
	if status != http.StatusOK {
		return ServerStats{}, fmt.Errorf("/stats: status %d", status)
	}
	return ParseServerStats(bytes.NewReader(body))
}

// RegisterSheet uploads the result-composition stylesheet.
func (c *Conn) RegisterSheet() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	status, _, err := c.doLocked(http.MethodPut, "/xslt/"+SheetName, []byte(Sheet))
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("PUT /xslt/%s: status %d", SheetName, status)
	}
	return err
}

// DocIDs lists the stored documents and returns name -> id.
func (c *Conn) DocIDs() (map[string]uint64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	status, body, err := c.doLocked(http.MethodGet, "/docs", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("/docs: status %d", status)
	}
	ids := map[string]uint64{}
	for _, line := range strings.Split(string(body), "\n") {
		i := strings.Index(line, `<document id="`)
		if i < 0 {
			continue
		}
		rest := line[i+len(`<document id="`):]
		q := strings.IndexByte(rest, '"')
		id, err := strconv.ParseUint(rest[:q], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("/docs: bad id in %q", line)
		}
		rest = rest[q:]
		const key = `" name="`
		if !strings.HasPrefix(rest, key) {
			return nil, fmt.Errorf("/docs: no name in %q", line)
		}
		rest = rest[len(key):]
		ids[rest[:strings.IndexByte(rest, '"')]] = id
	}
	return ids, nil
}
